package paint

import (
	"testing"
	"unsafe"

	"visibility/internal/apps"
	"visibility/internal/apps/circuit"
	"visibility/internal/apps/stencil"
	"visibility/internal/core"
	"visibility/internal/obs"
	"visibility/internal/testutil"
)

// TestSteadyStateCounters pins what remembering geometry must not change:
// every counter the cost model charges comes out as it did when each
// intersection and each view's union was computed afresh. From iteration 2
// on the painter meets no region pair it has not intersected before and
// rebuilds no view's point sets.
func TestSteadyStateCounters(t *testing.T) {
	for _, tc := range []struct {
		name string
		inst *apps.Instance
		want core.Stats
	}{
		{"circuit", circuit.New(16), core.Stats{EntriesScanned: 9992, OverlapTests: 14896, ViewsCreated: 16, ViewEntries: 272, ItemsPruned: 268, DepsReported: 3242}},
		{"stencil", stencil.New(16), core.Stats{EntriesScanned: 4357, OverlapTests: 6850, ViewsCreated: 8, ViewEntries: 128, ItemsPruned: 135, DepsReported: 740}},
	} {
		pa := NewPainter(tc.inst.Tree, core.Options{})
		stream := core.NewStream(tc.inst.Tree)
		for _, l := range tc.inst.EmitInit(stream) {
			pa.Analyze(l.Task)
		}
		var pairs int
		var misses int64
		for iter := 0; iter <= 3; iter++ {
			for _, l := range tc.inst.Emit(stream, iter) {
				pa.Analyze(l.Task)
			}
			if iter >= 2 {
				if n := len(pa.inters); n != pairs {
					t.Errorf("%s: iteration %d intersected %d new region pairs", tc.name, iter, n-pairs)
				}
				if pa.unionMisses != misses {
					t.Errorf("%s: iteration %d computed %d view unions, want all reused", tc.name, iter, pa.unionMisses-misses)
				}
			}
			pairs, misses = len(pa.inters), pa.unionMisses
		}
		got := *pa.Stats()
		got.Launches = 0
		if got != tc.want {
			t.Errorf("%s: stats %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestSteadyStateAllocations bounds what the painter itself allocates per
// steady-state circuit launch at 16 nodes: the Result and deps the caller
// keeps, the views it hoists and the items it records; the Result and deps
// are carved from the scan's chunks, and the plans are the scan's own.
// Intersections, root paths and view unions are remembered, so after the
// first iteration none of them allocates; computing them afresh took 54
// allocations per launch, building the scan from nil every launch 15.1,
// and allocating each Result on its own 4 more. A plain build takes 1.99
// (2.04 when the plans were copied out) and the bound is 2.9; the race
// detector makes sync.Pool drop buffers at random, which takes that to
// about 2.35, so there the bound is 4.
func TestSteadyStateAllocations(t *testing.T) {
	inst := circuit.New(16)
	pa := NewPainter(inst.Tree, core.Options{})
	stream := core.NewStream(inst.Tree)
	for _, l := range inst.EmitInit(stream) {
		pa.Analyze(l.Task)
	}
	for _, l := range inst.Emit(stream, 0) {
		pa.Analyze(l.Task)
	}
	limit := 2.9
	if testutil.RaceEnabled() {
		limit = 4
	}
	var allocs, launches int64
	for iter := 1; iter <= 3; iter++ {
		batch := inst.Emit(stream, iter)
		before := obs.ReadAllocs()
		for _, l := range batch {
			pa.Analyze(l.Task)
		}
		n, _ := obs.ReadAllocs().Since(before)
		allocs += n
		launches += int64(len(batch))
	}
	if per := float64(allocs) / float64(launches); per > limit {
		t.Errorf("the painter allocates %.1f times per steady-state launch (%d over %d launches), want at most %.1f",
			per, allocs, launches, limit)
	} else {
		t.Logf("%.2f allocations per launch", per)
	}
}

// TestItemSize pins a history item at 40 bytes: an entry names its region
// and holds no points of its own.
func TestItemSize(t *testing.T) {
	if size := unsafe.Sizeof(item{}); size != 40 {
		t.Errorf("item is %d bytes, want 40", size)
	}
}
