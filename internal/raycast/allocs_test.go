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
// no set algebra at all, and it borrows its scratch from the analyzer, so
// it allocates only the sets it creates, the histories their first
// appends copy and the Result the caller keeps; the first of the three
// iterations measured is the one that cuts the coalesced sets for the
// first time and pays for the sweeps and the nodes. Re-sweeping every
// iteration took 66 allocations per launch and the pairwise rectangle
// algebra before that 2,160, and building the scratch from nil every
// launch 56, so the bound fails as soon as a steady-state refine computes
// anything again. A plain build takes 26 and the bound is 30; the race
// detector makes sync.Pool drop buffers at random, which takes that to
// about 31, so there the bound is 40.
func TestSteadyStateAllocations(t *testing.T) {
	inst := circuit.New(16)
	rc := raycast.New(inst.Tree, core.Options{})
	stream := core.NewStream(inst.Tree)
	for _, l := range inst.Emit(stream, 0) { // initialization
		rc.Analyze(l.Task)
	}
	limit := int64(30)
	if testutil.RaceEnabled() {
		limit = 40
	}
	var allocs, launches int64
	for iter := 1; iter <= 3; iter++ {
		batch := inst.Emit(stream, iter)
		before := obs.ReadAllocs()
		for _, l := range batch {
			rc.Analyze(l.Task)
		}
		n, _ := obs.ReadAllocs().Since(before)
		allocs += n
		launches += int64(len(batch))
	}
	if per := allocs / launches; per > limit {
		t.Errorf("ray casting allocates %d times per steady-state launch (%d over %d launches), want at most %d",
			per, allocs, launches, limit)
	} else {
		t.Logf("%d allocations per launch", per)
	}
}
