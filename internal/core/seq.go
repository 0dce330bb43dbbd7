package core

import (
	"fmt"

	"visibility/internal/data"
	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/privilege"
	"visibility/internal/region"
)

// Kernel supplies the data transformation performed by each task. Kernels
// must be deterministic functions of their arguments so that the sequential
// interpreter and analyzer-driven engines compute bit-identical values.
type Kernel interface {
	// WriteValue returns the new value at point p for requirement ri of
	// task t, given the current (materialized) value in. Called only for
	// read-write requirements.
	WriteValue(t *Task, ri int, p geometry.Point, in float64) float64
	// ReduceValue returns t's reduction contribution at point p for
	// requirement ri. Called only for reduce requirements; it cannot
	// observe current values, mirroring the write-only nature of
	// reduction privileges.
	ReduceValue(t *Task, ri int, p geometry.Point) float64
}

// Seq is the ground-truth sequential interpreter: it executes the task
// stream in program order against a single global store per field,
// implementing the blending semantics of §3.1 directly (writes overwrite,
// reductions fold eagerly, reads observe the current value).
type Seq struct {
	tree *region.Tree
	// global is the single mutable store per field; Run folds every task
	// into it in program order on one goroutine.
	global map[field.ID]*data.Store
}

// NewSeq creates a sequential interpreter with the given initial contents
// per field. The stores are cloned; the caller's copies are not mutated.
func NewSeq(tree *region.Tree, init map[field.ID]*data.Store) *Seq {
	g := make(map[field.ID]*data.Store, len(init))
	for f, s := range init {
		g[f] = s.Clone()
	}
	return &Seq{tree: tree, global: g}
}

// Global returns the current global store for field f.
func (s *Seq) Global(f field.ID) *data.Store { return s.global[f] }

// Run executes one task and returns its materialized inputs (RunBody).
func (s *Seq) Run(t *Task, k Kernel) []*data.Store { return s.RunBody(t, k, nil) }

// RunBody executes one task, invoking body (if non-nil) after all inputs
// are materialized and before any outputs apply — the run_task structure of
// Figure 6. Engines driving kernels whose Write/Reduce functions close over
// state prepared by a body must use this form. It returns the materialized
// input store of each read or read-write requirement (nil for reduce
// requirements), against which analyzer-driven execution is validated.
func (s *Seq) RunBody(t *Task, k Kernel, body func(inputs []*data.Store)) []*data.Store {
	// Phase 1: materialize every input (Figure 6 line 4).
	inputs := make([]*data.Store, len(t.Reqs))
	for ri, req := range t.Reqs {
		g := s.global[req.Field]
		if g == nil {
			panic(fmt.Sprintf("core: no initial data for field %d", req.Field))
		}
		if !req.Priv.IsReduce() {
			inputs[ri] = g.Restrict(req.Region.Space)
		}
	}
	if body != nil {
		body(inputs)
	}
	// Phase 2: run the kernel and apply outputs (lines 6-8). The §4
	// restriction (interfering requirements of one task have disjoint
	// domains) makes the apply order across requirements immaterial except
	// for same-operator reductions, which commute structurally and are
	// applied in requirement order here and by the Executor.
	for ri, req := range t.Reqs {
		g := s.global[req.Field]
		switch {
		case req.Priv.IsWrite():
			in := inputs[ri]
			req.Region.Space.Each(func(p geometry.Point) bool {
				cur, ok := in.Get(p)
				if !ok {
					// Writing over never-initialized data: the kernel
					// sees the reduction-free undefined marker 0; both
					// engines apply the same rule.
					cur = 0
				}
				g.Set(p, k.WriteValue(t, ri, p, cur))
				return true
			})
		case req.Priv.IsReduce():
			op := req.Priv.Op
			req.Region.Space.Each(func(p geometry.Point) bool {
				contrib := privilege.Apply(op, privilege.Identity(op), k.ReduceValue(t, ri, p))
				cur, ok := g.Get(p)
				if !ok {
					cur = privilege.Identity(op)
				}
				g.Set(p, privilege.Apply(op, cur, contrib))
				return true
			})
		}
	}
	return inputs
}
