package crosscheck

import (
	"math/rand"
	"testing"

	"visibility/internal/autotrace"
	"visibility/internal/core"
	"visibility/internal/data"
	"visibility/internal/fault"
	"visibility/internal/harness"
	"visibility/internal/testutil"
)

// TestSoakRandomStreams is the long-form randomized cross-validation:
// many random trees and long task streams through every analyzer, plus
// trace-wrapped variants replaying repeated stream windows. Skipped in
// -short mode.
func TestSoakRandomStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(7171))
	for it := 0; it < 120; it++ {
		tree := harness.ChaosTree(rng)
		stream := harness.ChaosStream(rng, tree, 20+rng.Intn(40))
		if err := core.Verify(stream, testutil.FullInit(tree), core.HashKernel{}, allFactories()...); err != nil {
			t.Fatalf("soak iteration %d: %v", it, err)
		}
	}
}

// TestSoakTracedLoops validates autotraced replay across every analyzer
// on repeated random loop bodies, launched with no trace brackets: every
// result must equal a plain analyzer's in lockstep, values must match the
// sequential interpreter, dependence orderings must stay sound, and each
// analyzer must replay at least the launches it replays today over eight
// repetitions (raycast and warnock 566, paint 315; the naive painter
// replays none), so a change that stops replay fails the soak. The same
// loops run again with trace.invalidate armed on the autotracer alone, so
// the lockstep check spans every abort and the drain after it; there each
// analyzer that replays must both invalidate and replay.
func TestSoakTracedLoops(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const invalidate = "seed=1;trace.invalidate=every=5"
	rng := rand.New(rand.NewSource(99221))
	plans := []string{"", invalidate}
	stats := map[string]map[string]autotrace.Stats{"": {}, invalidate: {}}
	for it := 0; it < 25; it++ {
		tree := harness.ChaosTree(rng)
		// A fixed random loop body, repeated.
		body := harness.ChaosStream(rng, tree, 6+rng.Intn(8))
		if len(body.Tasks) == 0 {
			continue
		}
		for _, plan := range plans {
			for _, fac := range allFactories() {
				faults, err := fault.NewFromString(plan)
				if err != nil {
					t.Fatal(err)
				}
				auto := autotrace.New(fac.New(tree), core.Options{Faults: faults})
				launch, inputs := testutil.Serial(core.Checked(testutil.Lockstep(t, auto, fac.New(tree))), testutil.FullInit(tree))
				seq := core.NewSeq(tree, testutil.FullInit(tree))

				stream := core.NewStream(tree)
				var got [][]int
				var wants [][]*data.Store
				for rep := 0; rep < 8; rep++ {
					for _, proto := range body.Tasks {
						task := stream.Launch(proto.Name, proto.Reqs...)
						wants = append(wants, seq.Run(task, core.HashKernel{}))
						got = append(got, launch(task))
					}
				}
				st, sum := auto.AutoStats(), stats[plan][fac.Name]
				sum.Trace.Replayed += st.Trace.Replayed
				sum.Trace.Invalidations += st.Trace.Invalidations
				stats[plan][fac.Name] = sum
				// Values match the sequential interpreter.
				for id, want := range wants {
					have := inputs[id]
					for ri := range want {
						if want[ri] != nil && !want[ri].Equal(have[ri]) {
							t.Fatalf("soak %d %s %q: task %d req %d diverged:\n%s",
								it, fac.Name, plan, id, ri, want[ri].Diff(have[ri]))
						}
					}
				}
				// Orderings sound.
				if err := core.CheckSound(got, core.ExactDeps(stream.Tasks)); err != nil {
					t.Fatalf("soak %d %s %q: %v", it, fac.Name, plan, err)
				}
			}
		}
	}
	floors := []struct {
		name  string
		floor int64
	}{{"paint-naive", 0}, {"paint", 315}, {"warnock", 566}, {"raycast", 566}}
	for _, plan := range plans {
		for _, f := range floors {
			name, floor, st := f.name, f.floor, stats[plan][f.name]
			t.Logf("%q %s: replayed %d launches, %d invalidations", plan, name, st.Trace.Replayed, st.Trace.Invalidations)
			switch {
			case plan == "" && st.Trace.Replayed < floor:
				t.Errorf("%s replayed %d launches, want at least %d", name, st.Trace.Replayed, floor)
			case plan != "" && floor > 0 && (st.Trace.Replayed == 0 || st.Trace.Invalidations == 0):
				t.Errorf("%s under %q: replayed %d, invalidated %d; want both above 0", name, plan, st.Trace.Replayed, st.Trace.Invalidations)
			}
		}
	}
}
