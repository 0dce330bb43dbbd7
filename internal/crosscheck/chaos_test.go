package crosscheck

import (
	"bytes"
	"testing"
	"time"

	"visibility/internal/fault"
	"visibility/internal/harness"
)

// TestChaosAnalyzersAgree is the chaos soak: dozens of (workload seed,
// fault plan) cells, each running a randomized task stream through all
// four analyzers with the fault plane active — forced equivalence-set
// splits, forced migrations, trace invalidations. Coherence and dependence
// soundness against the sequential ground truth must survive every cell.
// Skipped in short mode; TestChaosAnalyzersAgreeSmoke is the always-on
// tier-1 variant.
func TestChaosAnalyzersAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak: long test, run without -short")
	}
	// 24 workload seeds × 2 plan seeds ≥ the 20 distinct seeds the fault
	// plane promises to survive, plus an aggressive all-sites plan.
	for seed := int64(1); seed <= 24; seed++ {
		for _, planSeed := range []int64{seed, seed + 1000} {
			r, err := harness.RunChaos(harness.ChaosConfig{
				Seed:  seed,
				Plan:  harness.DefaultChaosPlan(planSeed),
				Tasks: 32,
			})
			if err != nil {
				t.Fatalf("%v (reproduce with: visbench -chaos -chaos-seed %d -chaos-plan %q)", err, seed, harness.DefaultChaosPlan(planSeed))
			}
			if r.Events == 0 {
				t.Fatalf("seed %d: chaos run journaled no events", seed)
			}
		}
		// Aggressive cell: every covered set splits, half the launches
		// migrate, and replays invalidate often.
		aggressive := "seed=1;analyzer.eqset.split=p=1;analyzer.eqset.migrate=p=0.5;trace.invalidate=p=0.3"
		if _, err := harness.RunChaos(harness.ChaosConfig{Seed: seed, Plan: aggressive, Tasks: 24}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestChaosAnalyzersAgreeSmoke is the bounded smoke variant that always
// runs in tier-1: as many chaos cells as fit in ~2 seconds, at least one.
func TestChaosAnalyzersAgreeSmoke(t *testing.T) {
	deadline := time.Now().Add(2 * time.Second)
	ran := 0
	for seed := int64(1); seed <= 8; seed++ {
		r, err := harness.RunChaos(harness.ChaosConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if r.Events == 0 {
			t.Fatalf("seed %d: chaos run journaled no events", seed)
		}
		ran++
		if time.Now().After(deadline) {
			break
		}
	}
	t.Logf("chaos smoke: %d cells", ran)
}

// TestChaosPlanReplayDeterministic is the crosscheck-level replay
// property: the exact acceptance contract is that a failing seed's plan
// string reproduces the identical recorder dump, which requires equality
// for passing seeds too.
func TestChaosPlanReplayDeterministic(t *testing.T) {
	seeds := []int64{2, 5, 11}
	if !testing.Short() {
		seeds = append(seeds, 17, 23, 42, 99)
	}
	for _, seed := range seeds {
		a, err := harness.RunChaos(harness.ChaosConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		// Replay from the report's own plan string, the artifact a failing
		// run hands back.
		b, err := harness.RunChaos(harness.ChaosConfig{Seed: a.Seed, Plan: a.Plan})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Dump, b.Dump) {
			t.Fatalf("seed %d: replay from plan string diverged (%d vs %d bytes)", seed, len(a.Dump), len(b.Dump))
		}
	}
}

// TestChaosForcedSplitsVisible asserts the fault plane actually reaches
// the analyzers: under an every-split plan, equivalence-set splits must
// fire, and the randomized verification still passes — the splits are
// semantics-preserving by construction.
func TestChaosForcedSplitsVisible(t *testing.T) {
	r, err := harness.RunChaos(harness.ChaosConfig{Seed: 6, Plan: "seed=1;analyzer.eqset.split=every=2", Tasks: 24})
	if err != nil {
		t.Fatal(err)
	}
	if r.Fires[fault.EqSplit] == 0 {
		t.Fatal("every=2 split plan never fired")
	}
	// The injector is consulted once per covered set a requirement meets
	// (under ray casting, a write or reduction: its reads cut nothing),
	// whether the kernel swept to find the set covered or remembered it,
	// so remembering geometry cannot move a seeded schedule. The count is
	// that of the kernel that swept every time. The events are one
	// fault_inject line per fire and the autotracer's one trace_commit: an
	// analysis journals nothing of its own.
	if n := r.Fires[fault.EqSplit]; n != 48 || r.Events != 49 {
		t.Errorf("every=2 split plan fired %d times over %d events, want 48 and 49", n, r.Events)
	}
}
