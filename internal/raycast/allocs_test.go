package raycast_test

import (
	"testing"

	"visibility/internal/apps/circuit"
	"visibility/internal/core"
	"visibility/internal/obs"
	"visibility/internal/raycast"
	"visibility/internal/testutil"
)

// TestSteadyStateAllocations replays circuit at 16 nodes — aliased
// multi-rectangle ghost sets refined and coalesced every iteration — and
// bounds what one steady-state launch may allocate. The sets a launch
// creates wear interned geometry, so from the second iteration on it does
// no set algebra at all; it borrows its scratch from the analyzer, and the
// kernel carves the sets it creates and the histories their first appends
// copy from chunks, as the scan does the Result and deps the caller keeps
// (the plans are the scan's own), so what remains is a chunk refill now
// and then. Two windows are measured. Iterations 1–3 include the one that
// cuts the coalesced sets for the first time and pays for the sweeps and
// the nodes: a plain build takes 7.4 (9.4 while reads cut sets) and the
// bound is 9.5; the race detector makes sync.Pool drop buffers at random,
// which takes that to about 11.5, so there the bound is 16. Iterations 2–4
// are steady only: a plain build takes 0.12 (0.18 while reads cut sets,
// 0.25 when the plans were copied out) and the bound is 0.5, so a Result
// allocated on its own (four per launch before its chunks) fails it, as
// does a set or a history array (18 per launch). Re-sweeping every
// iteration took 66 allocations per launch and the pairwise rectangle
// algebra before that 2,160, and building the scratch from nil every
// launch 56.
func TestSteadyStateAllocations(t *testing.T) {
	inst := circuit.New(16)
	rc := raycast.New(inst.Tree, core.Options{})
	stream := core.NewStream(inst.Tree)
	for _, l := range inst.Emit(stream, 0) { // initialization
		rc.Analyze(l.Task)
	}
	var allocs, launches [5]int64 // by iteration
	for iter := 1; iter <= 4; iter++ {
		batch := inst.Emit(stream, iter)
		before := obs.ReadAllocs()
		for _, l := range batch {
			rc.Analyze(l.Task)
		}
		allocs[iter], _ = obs.ReadAllocs().Since(before)
		launches[iter] = int64(len(batch))
	}
	limit := 9.5
	if testutil.RaceEnabled() {
		limit = 16
	}
	for _, w := range []struct {
		first, last int
		limit       float64
	}{{1, 3, limit}, {2, 4, 0.5}} {
		var n, l int64
		for iter := w.first; iter <= w.last; iter++ {
			n += allocs[iter]
			l += launches[iter]
		}
		if per := float64(n) / float64(l); per > w.limit {
			t.Errorf("iterations %d–%d: ray casting allocates %.2f times per launch (%d over %d launches), want at most %.2f",
				w.first, w.last, per, n, l, w.limit)
		} else {
			t.Logf("iterations %d–%d: %.2f allocations per launch", w.first, w.last, per)
		}
	}
}
