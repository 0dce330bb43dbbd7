package apps_test

import (
	"runtime"
	"testing"

	"visibility/internal/apps"
	"visibility/internal/apps/circuit"
	"visibility/internal/apps/pennant"
	"visibility/internal/apps/stencil"
	"visibility/internal/core"
	"visibility/internal/index"
	"visibility/internal/obs"
)

var builders = []struct {
	name  string
	build apps.Builder
}{
	{"stencil", stencil.New},
	{"circuit", circuit.New},
	{"pennant", pennant.New},
}

// TestInstancesWellFormed checks the structural requirements the harness
// and the ray-casting heuristic rely on.
func TestInstancesWellFormed(t *testing.T) {
	for _, b := range builders {
		for _, nodes := range []int{1, 2, 3, 4, 8} {
			inst := b.build(nodes)
			if inst.Name != b.name {
				t.Errorf("%s(%d): name %q", b.name, nodes, inst.Name)
			}
			if !inst.Owned.DisjointComplete() {
				t.Errorf("%s(%d): owned partition must be disjoint-complete, got %v",
					b.name, nodes, inst.Owned)
			}
			if len(inst.Owned.Subregions) != nodes {
				t.Errorf("%s(%d): owned pieces = %d", b.name, nodes, len(inst.Owned.Subregions))
			}
			if inst.UnitsPerNode <= 0 || inst.UnitName == "" {
				t.Errorf("%s(%d): bad units", b.name, nodes)
			}

			s := core.NewStream(inst.Tree)
			launches := inst.Emit(s, 0)
			if len(launches) == 0 {
				t.Fatalf("%s(%d): no launches", b.name, nodes)
			}
			for _, l := range launches {
				if l.Duration <= 0 {
					t.Errorf("%s(%d): launch %v has no duration", b.name, nodes, l.Task)
				}
				if l.Node < 0 || l.Node >= nodes {
					t.Errorf("%s(%d): launch %v on node %d", b.name, nodes, l.Task, l.Node)
				}
				for _, req := range l.Task.Reqs {
					if !inst.Tree.Root.Space.Covers(req.Region.Space) {
						t.Errorf("%s(%d): region escapes root", b.name, nodes)
					}
				}
			}
			// Iterations are structurally identical: same task count and
			// same per-phase shape.
			l1 := inst.Emit(s, 1)
			if len(l1) != len(launches) {
				t.Errorf("%s(%d): iteration shape changed: %d vs %d",
					b.name, nodes, len(launches), len(l1))
			}
		}
	}
}

// TestGhostsAliased verifies the content-based-coherence-requiring
// property: ghost partitions overlap (except at trivial machine sizes).
func TestGhostsAliased(t *testing.T) {
	for _, b := range builders {
		inst := b.build(4)
		aliased := false
		for _, p := range inst.Tree.Root.Partitions {
			if !p.Disjoint {
				aliased = true
			}
		}
		if !aliased {
			t.Errorf("%s: no aliased partition — the workload would not need content-based coherence", b.name)
		}
	}
}

// TestPhaseParallelism checks that tasks within one phase of one iteration
// are mutually independent (they must run in parallel), via the exact
// analyzer.
func TestPhaseParallelism(t *testing.T) {
	for _, b := range builders {
		nodes := 4
		inst := b.build(nodes)
		s := core.NewStream(inst.Tree)
		launches := inst.Emit(s, 0)
		exact := core.ExactDeps(s.Tasks)

		// Group launches by task name prefix (phase).
		phase := func(name string) string {
			for i, c := range name {
				if c == '[' {
					return name[:i]
				}
			}
			return name
		}
		byPhase := make(map[string][]int)
		for _, l := range launches {
			p := phase(l.Task.Name)
			byPhase[p] = append(byPhase[p], l.Task.ID)
		}
		for p, ids := range byPhase {
			for _, a := range ids {
				for _, d := range exact[a] {
					for _, other := range ids {
						if d == other {
							t.Errorf("%s: phase %s tasks %d and %d interfere", b.name, p, d, a)
						}
					}
				}
			}
		}
	}
}

// TestCrossPhaseDependences verifies that consecutive phases actually
// communicate: at least one exact dependence must exist from each phase to
// a later one within an iteration (otherwise the benchmark would not
// exercise coherence at all).
func TestCrossPhaseDependences(t *testing.T) {
	for _, b := range builders {
		inst := b.build(4)
		s := core.NewStream(inst.Tree)
		inst.Emit(s, 0)
		inst.Emit(s, 1)
		exact := core.ExactDeps(s.Tasks)
		total := 0
		for _, deps := range exact {
			total += len(deps)
		}
		if total == 0 {
			t.Errorf("%s: no dependences at all", b.name)
		}
	}
}

// TestStencilGhostIsPlusShaped verifies the 9-point star halo: width-2
// strips in the four cardinal directions, no corners.
func TestStencilGhostIsPlusShaped(t *testing.T) {
	inst := stencil.New(4) // 2x2 grid of pieces
	var ghost *index.Space
	for _, p := range inst.Tree.Root.Partitions {
		if p.Name == "G" {
			g := p.Subregions[0].Space
			ghost = &g
		}
	}
	if ghost == nil {
		t.Fatal("no ghost partition")
	}
	piece := inst.Owned.Subregions[0].Space
	if ghost.Overlaps(piece) {
		t.Error("ghost must exclude the piece itself")
	}
	// Interior piece 0 at the 2x2 corner: its halo has exactly two strips
	// (east and north), each of width 2.
	b := piece.Bounds()
	if ghost.Volume() != 2*(b.Hi.C[0]-b.Lo.C[0]+1)+2*(b.Hi.C[1]-b.Lo.C[1]+1) {
		t.Errorf("ghost volume = %d, not two width-2 strips", ghost.Volume())
	}
}

// TestCircuitDeterministic verifies the graph generator is a pure function
// of the node count.
func TestCircuitDeterministic(t *testing.T) {
	a := circuit.New(4)
	b := circuit.New(4)
	for i, sub := range a.Tree.Root.Partitions[3].Subregions {
		if !sub.Space.Equal(b.Tree.Root.Partitions[3].Subregions[i].Space) {
			t.Fatalf("ghost piece %d differs between builds", i)
		}
	}
}

// TestSteadyEmitAllocations pins what a steady Emit step allocates at 16
// nodes: its launches slice (pennant also allocates its calc_dt futures
// and the folded-dt future the next cycle's calc_forces tasks share) and
// nothing per launch — task names are built once by the Builder, and the
// stream carves each task and its requirements from chunks, so over the
// window it may refill each chunk once per chunk of slots it hands out.
// Formatting each name and allocating each task and requirement list took
// about 3 allocations per launch.
func TestSteadyEmitAllocations(t *testing.T) {
	const steps = 40
	// As testing.AllocsPerRun does, measure on one P, so that no other
	// goroutine's allocations land in a window.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, b := range builders {
		perStep := int64(1)
		if b.name == "pennant" {
			perStep = 3
		}
		inst := b.build(16)
		stream := core.NewStream(inst.Tree)
		stream.Tasks = make([]*core.Task, 0, 4096) // no growth inside the window
		if inst.EmitInit != nil {
			inst.EmitInit(stream)
		}
		for step := 0; step < 10; step++ { // until the stream's slabs are full length
			inst.Emit(stream, step)
		}
		tasks := len(stream.Tasks)
		runtime.GC() // the process's first collection allocates its workers
		before := obs.ReadAllocs()
		for step := 10; step < 10+steps; step++ {
			inst.Emit(stream, step)
		}
		allocs, _ := obs.ReadAllocs().Since(before)
		if cap(stream.Tasks) != 4096 {
			t.Fatalf("%s: the stream outgrew its task list; the window measures its growth", b.name)
		}
		var reqs, widest int
		for _, tk := range stream.Tasks[tasks:] {
			reqs, widest = reqs+len(tk.Reqs), max(widest, len(tk.Reqs))
		}
		tasks = len(stream.Tasks) - tasks
		// A requirement chunk is refilled once it has fewer slots left
		// than the next task needs, so it holds at least ChunkLen-widest+1.
		refills := int64(tasks/core.ChunkLen + 1 + reqs/(core.ChunkLen-widest+1) + 1)
		if limit := steps*perStep + refills; allocs > limit {
			t.Errorf("%s: %d steady Emit steps (%d launches) allocate %d times, want at most %d (%d per step and %d chunk refills)",
				b.name, steps, tasks, allocs, limit, perStep, refills)
		} else {
			t.Logf("%s: %d allocations over %d steps (%d launches)", b.name, allocs, steps, tasks)
		}
	}
}
