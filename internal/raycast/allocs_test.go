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
// bounds what one steady-state launch may allocate. A launch is a few
// dozen set-algebra calls of one result allocation each; the pairwise
// rectangle algebra this replaced took 2,160 allocations per launch, so the
// bound fails long before the analyzer is back to O(n·m) operations. A
// plain build takes 66 and the bound is 80; the race detector makes
// sync.Pool drop buffers at random, which takes that to about 80, so there
// the bound is 120.
func TestSteadyStateAllocations(t *testing.T) {
	inst := circuit.New(16)
	rc := raycast.New(inst.Tree, core.Options{})
	stream := core.NewStream(inst.Tree)
	for _, l := range inst.Emit(stream, 0) { // initialization
		rc.Analyze(l.Task)
	}
	limit := int64(80)
	if testutil.RaceEnabled() {
		limit = 120
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
