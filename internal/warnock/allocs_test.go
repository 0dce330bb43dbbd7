package warnock_test

import (
	"testing"

	"visibility/internal/apps/circuit"
	"visibility/internal/core"
	"visibility/internal/obs"
	"visibility/internal/warnock"
)

// TestSteadyStateAllocations replays circuit at 16 nodes and bounds what
// one steady-state launch may allocate. Refinement stops once the tree has
// cut every region the program uses, and a launch borrows its scratch from
// the analyzer — the scan, the set lists, the leaf buffer — and reuses each
// written set's history array, so what remains is the Result and deps the
// caller keeps, carved from the scan's chunks, and the refills of those
// chunks; the plans are the scan's own. Building the scratch from nil
// every launch took 51 allocations per launch, allocating each Result on
// its own 4.2, and copying the plans out 0.31. A plain build takes 0.23
// and the bound is 0.75; the race detector measures the same, as nothing
// here goes through a sync.Pool, so it has the same bound.
func TestSteadyStateAllocations(t *testing.T) {
	inst := circuit.New(16)
	w := warnock.New(inst.Tree, core.Options{})
	stream := core.NewStream(inst.Tree)
	for _, l := range inst.Emit(stream, 0) { // initialization
		w.Analyze(l.Task)
	}
	limit := 0.75
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
		t.Errorf("Warnock allocates %.2f times per steady-state launch (%d over %d launches), want at most %.2f",
			per, allocs, launches, limit)
	} else {
		t.Logf("%.2f allocations per launch", per)
	}
}
