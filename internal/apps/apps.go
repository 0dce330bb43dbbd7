// Package apps defines the common shape of the benchmark applications of
// the paper's evaluation (§8): Stencil, Circuit, and Pennant. Each app
// builds a region tree sized to a node count and emits the task launches of
// one iteration of its main loop, annotated with the execution node and the
// virtual duration of each task's kernel.
//
// Index spaces use the applications' real logical sizes (analysis cost in
// this codebase depends on rectangle structure, not volume), so data
// transfer volumes derived from index-space volumes are realistic.
package apps

import (
	"visibility/internal/cluster"
	"visibility/internal/core"
	"visibility/internal/region"
)

// Launch is one task launch of an application iteration.
type Launch struct {
	Task     *core.Task
	Node     int          // execution node (the piece's owner)
	Duration cluster.Time // kernel execution time in virtual seconds
}

// Instance is one application instantiated at a machine size.
type Instance struct {
	Name string
	Tree *region.Tree
	// Owned is a disjoint-complete partition assigning every element to
	// its owner piece; analysis state and initial data live with it.
	Owned *region.Partition
	// UnitsPerNode is the work per node per iteration in the unit the
	// paper plots for this application.
	UnitsPerNode float64
	// UnitName is the plotted unit ("points", "wires", "zones").
	UnitName string
	// EmitInit appends the application's setup launches (fills and
	// per-piece initialization tasks) to s; they run once, before the
	// first main-loop iteration, and count toward the paper's
	// initialization-time metric. May be nil.
	EmitInit func(s *core.Stream) []Launch
	// Emit appends one iteration's launches to s. Iterations are
	// structurally identical (the steady-state loops of §8 do not change
	// partitioning after initialization).
	Emit func(s *core.Stream, iter int) []Launch
}

// Builder constructs an application instance for a node count.
type Builder func(nodes int) *Instance
