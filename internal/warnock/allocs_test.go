package warnock_test

import (
	"testing"

	"visibility/internal/apps/circuit"
	"visibility/internal/core"
	"visibility/internal/obs"
	"visibility/internal/testutil"
	"visibility/internal/warnock"
)

// TestSteadyStateAllocations replays circuit at 16 nodes and bounds what
// one steady-state launch may allocate. Refinement stops once the tree has
// cut every region the program uses, and a launch borrows its scratch from
// the analyzer — the scan, the set lists, the leaf buffer — and reuses each
// written set's history array, so what remains is the Result the caller
// keeps. Building those from nil every launch took 51 allocations per
// launch. A plain build takes 4.2 and the bound is 5; the race detector
// measures the same, as nothing here goes through a sync.Pool, and its
// bound is looser, 6, like the other analyzers'.
func TestSteadyStateAllocations(t *testing.T) {
	inst := circuit.New(16)
	w := warnock.New(inst.Tree, core.Options{})
	stream := core.NewStream(inst.Tree)
	for _, l := range inst.Emit(stream, 0) { // initialization
		w.Analyze(l.Task)
	}
	limit := 5.0
	if testutil.RaceEnabled() {
		limit = 6
	}
	var allocs, launches int64
	for iter := 1; iter <= 3; iter++ {
		batch := inst.Emit(stream, iter)
		before := obs.ReadAllocs()
		for _, l := range batch {
			w.Analyze(l.Task)
		}
		n, _ := obs.ReadAllocs().Since(before)
		allocs += n
		launches += int64(len(batch))
	}
	if per := float64(allocs) / float64(launches); per > limit {
		t.Errorf("Warnock allocates %.1f times per steady-state launch (%d over %d launches), want at most %.1f",
			per, allocs, launches, limit)
	} else {
		t.Logf("%.1f allocations per launch", per)
	}
}
