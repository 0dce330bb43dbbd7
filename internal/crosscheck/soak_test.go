package crosscheck

import (
	"math/rand"
	"testing"

	"visibility/internal/core"
	"visibility/internal/harness"
	"visibility/internal/testutil"
	"visibility/internal/trace"
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

// TestSoakTracedLoops validates trace replay across every analyzer on
// repeated random loop bodies: values must match the sequential
// interpreter and dependence orderings must stay sound.
func TestSoakTracedLoops(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(99221))
	for it := 0; it < 25; it++ {
		tree := harness.ChaosTree(rng)
		// A fixed random loop body, repeated.
		body := harness.ChaosStream(rng, tree, 6+rng.Intn(8))
		if len(body.Tasks) == 0 {
			continue
		}
		for _, fac := range allFactories() {
			tr := trace.New(fac.New(tree), core.Options{})
			launch, inputs := testutil.Serial(t, core.Checked(tr), testutil.FullInit(tree))
			seq := core.NewSeq(tree, testutil.FullInit(tree))

			stream := core.NewStream(tree)
			var got [][]int
			for rep := 0; rep < 6; rep++ {
				if rep > 0 {
					tr.Begin(1)
				}
				for _, proto := range body.Tasks {
					task := stream.Launch(proto.Name, proto.Reqs...)
					seq.Run(task, core.HashKernel{})
					got = append(got, launch(task))
				}
				if rep > 0 {
					tr.End()
				}
			}
			// Values match the sequential interpreter.
			for id, want := range seq.Inputs {
				have := inputs[id]
				for ri := range want {
					if want[ri] != nil && !want[ri].Equal(have[ri]) {
						t.Fatalf("soak %d %s: task %d req %d diverged:\n%s",
							it, fac.Name, id, ri, want[ri].Diff(have[ri]))
					}
				}
			}
			// Orderings sound.
			if err := core.CheckSound(got, core.ExactDeps(stream.Tasks)); err != nil {
				t.Fatalf("soak %d %s: %v", it, fac.Name, err)
			}
		}
	}
}
