package harness

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"

	"visibility/internal/fault"
)

// TestChaosReplayDeterministic is the replay property at the heart of the
// fault plane: the same (workload seed, plan) pair must journal the
// identical recorder dump byte for byte, so a failing seed's plan string
// is a complete reproduction recipe. Runs pairs concurrently so -race
// additionally checks the runs share nothing.
func TestChaosReplayDeterministic(t *testing.T) {
	seeds := []int64{1, 2, 3, 7, 1001}
	if testing.Short() {
		seeds = seeds[:3]
	}
	var wg sync.WaitGroup
	for _, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := ChaosConfig{Seed: seed}
			a, err := RunChaos(cfg)
			if err != nil {
				t.Errorf("seed %d: %v", seed, err)
				return
			}
			b, err := RunChaos(cfg)
			if err != nil {
				t.Errorf("seed %d replay: %v", seed, err)
				return
			}
			if !bytes.Equal(a.Dump, b.Dump) {
				t.Errorf("seed %d: replay dump differs (%d vs %d bytes)", seed, len(a.Dump), len(b.Dump))
				return
			}
			// Every journaled injection names a live site, so dumps are
			// interpretable post mortem.
			lines := strings.Split(strings.TrimSuffix(string(a.Dump), "\n"), "\n")
			if lines[0] != "dropped=0" || len(lines)-1 != a.Events {
				t.Errorf("seed %d: dump holds %d events (%s), report says %d", seed, len(lines)-1, lines[0], a.Events)
			}
			var injected int64
			for _, l := range lines {
				if _, args, ok := strings.Cut(l, " fault_inject site="); ok {
					injected++
					if site, _, _ := strings.Cut(args, " "); !slices.Contains(fault.Sites(), fault.Site(site)) {
						t.Errorf("seed %d: dump names unknown fault site %q", seed, site)
					}
				}
			}
			// Every fire journals one injection event.
			var fires int64
			for _, n := range a.Fires {
				fires += n
			}
			if injected != fires {
				t.Errorf("seed %d: %d KindFaultInject events vs %d reported fires", seed, injected, fires)
			}
		}()
	}
	wg.Wait()
}

// TestChaosPlanSensitivity checks the plan actually steers the run: a
// different plan seed over the same workload must change the fault
// schedule (otherwise the plan string is not the reproduction recipe it
// claims to be).
func TestChaosPlanSensitivity(t *testing.T) {
	a, err := RunChaos(ChaosConfig{Seed: 1, Plan: DefaultChaosPlan(10)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(ChaosConfig{Seed: 1, Plan: DefaultChaosPlan(11)})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Dump, b.Dump) {
		t.Fatal("different plan seeds produced identical dumps")
	}
}

// TestChaosExplicitPlan pins the targeted-rule path: a plan with a single
// every= rule fires exactly its scheduled count.
func TestChaosExplicitPlan(t *testing.T) {
	r, err := RunChaos(ChaosConfig{Seed: 3, Plan: "seed=9;analyzer.eqset.split=every=5,max=3", Tasks: 30})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Fires[fault.EqSplit]; got != 3 {
		t.Fatalf("EqSplit fired %d times, want 3 (max)", got)
	}
}

// TestChaosAutotraceInvalidationRecovery pins the autotrace leg: a plan
// arming only trace.invalidate forces replays to abort mid-instance, and
// the run's verification (inside RunChaos) proves the recovered values
// still match the sequential ground truth. The journal must carry the
// injection and the resulting invalidation.
func TestChaosAutotraceInvalidationRecovery(t *testing.T) {
	r, err := RunChaos(ChaosConfig{Seed: 5, Plan: "seed=5;trace.invalidate=every=3,max=2"})
	if err != nil {
		t.Fatalf("autotraced run diverged from ground truth: %v", err)
	}
	fires := r.Fires[fault.TraceInvalidate]
	if fires == 0 {
		t.Fatal("trace.invalidate never fired — replay was never reached")
	}
	at := r.AutoTrace
	if at.Aborts != fires || at.Trace.Invalidations != fires {
		t.Errorf("fires=%d but aborts=%d invalidations=%d, want all equal", fires, at.Aborts, at.Trace.Invalidations)
	}
	if at.Trace.Replayed == 0 {
		t.Error("no launches replayed after recovery")
	}
	if at.Candidates < 2 {
		t.Errorf("candidates = %d, want re-detection after the abort", at.Candidates)
	}
	injected := int64(strings.Count(string(r.Dump), " fault_inject site=trace.invalidate "))
	invalidated := int64(strings.Count(string(r.Dump), " trace_invalidate "))
	if injected != fires || invalidated != fires {
		t.Errorf("journal has %d fault_inject + %d trace_invalidate for %d fires", injected, invalidated, fires)
	}
}

// TestChaosRejectsBadPlan covers the error path callers (visbench -chaos)
// surface to users.
func TestChaosRejectsBadPlan(t *testing.T) {
	if _, err := RunChaos(ChaosConfig{Seed: 1, Plan: "seed=1;no.such.site=p=1"}); err == nil {
		t.Fatal("bad plan accepted")
	}
}
