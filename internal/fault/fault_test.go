package fault

import (
	"slices"
	"strings"
	"testing"

	"visibility/internal/obs/recorder"
)

// TestCatalogStable pins the site set: the four live sites, in the order
// chaos reports list them.
func TestCatalogStable(t *testing.T) {
	want := []Site{EqSplit, EqMigrate, WorkerPanic, TraceInvalidate}
	if got := Sites(); !slices.Equal(got, want) {
		t.Fatalf("Sites() = %v, want %v", got, want)
	}
}

func TestPlanStringParseRoundTrip(t *testing.T) {
	plans := []string{
		"",
		"seed=0",
		"seed=42;analyzer.eqset.split=p=0.25",
		"seed=-7;analyzer.eqset.migrate=p=0.1,max=3;server.worker.panic=every=1,max=1,arg=5",
		"seed=9;analyzer.eqset.split=every=2,after=1;trace.invalidate=p=1",
	}
	for _, in := range plans {
		p, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		out := p.String()
		p2, err := Parse(out)
		if err != nil {
			t.Fatalf("Parse(String(%q)) = Parse(%q): %v", in, out, err)
		}
		if p2.String() != out {
			t.Fatalf("canonical form unstable: %q -> %q -> %q", in, out, p2.String())
		}
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct{ in, want string }{
		{"seed=x", "bad seed"},
		{"nonsense", "not <site>=<spec>"},
		{"analyzer.eqset.bogus=p=1", "unknown site"},
		// Sites whose code is gone: no plan can arm them.
		{"seed=1;cluster.msg.drop=p=0.1", "unknown site"},
		{"seed=1;cluster.msg.delay=p=0.1", "unknown site"},
		{"seed=1;cluster.msg.dup=p=0.1", "unknown site"},
		{"seed=1;cluster.msg.reorder=p=0.1", "unknown site"},
		{"seed=1;sched.cache.bypass=p=0.25", "unknown site"},
		{"seed=1;server.admit.burst=every=2,max=3", "unknown site"},
		{"seed=1;checkpoint.encode.flip=every=1,max=1", "unknown site"},
		{"seed=1;checkpoint.restore.flip=every=1,max=1", "unknown site"},
		{"seed=1;shard.stall=every=3", "unknown site"},
		{"seed=1;shard.migrate=every=4", "unknown site"},
		{"trace.invalidate=p=2", "outside [0,1]"},
		{"trace.invalidate=p=-0.5", "outside [0,1]"},
		{"trace.invalidate=p=NaN", "outside [0,1]"},
		{"trace.invalidate=every=-1", "non-negative"},
		{"trace.invalidate=max=1", "no trigger"},
		{"trace.invalidate=arg=3", "no trigger"},
		{"trace.invalidate=p=1;trace.invalidate=p=1", "duplicate rules"},
		{"seed=1;trace.invalidate=p=1;seed=2", "duplicate seed"},
		{"trace.invalidate=zap=1", "unknown clause key"},
		{"trace.invalidate=arg=x", "not an integer"},
		{"trace.invalidate=p", "not <k>=<v>"},
	}
	for _, c := range cases {
		if _, err := Parse(c.in); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) err = %v, want substring %q", c.in, err, c.want)
		}
	}
}

func TestNilInjectorSafe(t *testing.T) {
	var in *Injector
	if in.Fire(EqSplit, 0) {
		t.Fatal("nil injector fired")
	}
	if fired, _ := in.FireValue(EqSplit, 0); fired {
		t.Fatal("nil injector fired")
	}
	in.Crash(WorkerPanic, 0) // must not panic
	in.SetRecorder(nil)
	if in.Fires(EqSplit) != 0 || in.Counts() != nil || in.String() != "" {
		t.Fatal("nil injector leaked state")
	}
}

func TestEverySchedule(t *testing.T) {
	in, err := NewFromString("seed=1;analyzer.eqset.split=every=3,after=2,max=2")
	if err != nil {
		t.Fatal(err)
	}
	var fires []int
	for i := 1; i <= 20; i++ {
		if in.Fire(EqSplit, 0) {
			fires = append(fires, i)
		}
	}
	// after=2 skips evals 1-2; every=3 then fires on matching evals 5, 8,
	// 11, ... ; max=2 caps at two fires.
	if len(fires) != 2 || fires[0] != 5 || fires[1] != 8 {
		t.Fatalf("fires at %v, want [5 8]", fires)
	}
	if in.Fires(EqSplit) != 2 {
		t.Fatalf("Fires = %d, want 2", in.Fires(EqSplit))
	}
}

func TestArgTargeting(t *testing.T) {
	in, err := NewFromString("seed=1;server.worker.panic=every=1,max=1,arg=5")
	if err != nil {
		t.Fatal(err)
	}
	// Evaluations with other args never fire and never advance counters,
	// so the targeted arg fires on its first evaluation regardless of
	// interleaving.
	for i := int64(0); i < 10; i++ {
		if in.Fire(WorkerPanic, i%5) {
			t.Fatalf("fired for arg %d", i%5)
		}
	}
	if !in.Fire(WorkerPanic, 5) {
		t.Fatal("did not fire for targeted arg")
	}
	if in.Fire(WorkerPanic, 5) {
		t.Fatal("fired past max")
	}
}

func TestProbDeterministicAndSeedSensitive(t *testing.T) {
	run := func(plan string) []bool {
		in, err := NewFromString(plan)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 200)
		for i := range out {
			out[i] = in.Fire(EqSplit, int64(i))
		}
		return out
	}
	a := run("seed=7;analyzer.eqset.split=p=0.3")
	b := run("seed=7;analyzer.eqset.split=p=0.3")
	c := run("seed=8;analyzer.eqset.split=p=0.3")
	var fires, diff int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same plan diverged at eval %d", i)
		}
		if a[i] {
			fires++
		}
		if a[i] != c[i] {
			diff++
		}
	}
	if fires < 30 || fires > 90 {
		t.Fatalf("p=0.3 over 200 evals fired %d times", fires)
	}
	if diff == 0 {
		t.Fatal("seed change did not alter the fire sequence")
	}
}

func TestSiteStreamsIndependent(t *testing.T) {
	// Interleaving evaluations of another site must not perturb a site's
	// own fire sequence.
	seq := func(interleave bool) []bool {
		in, err := NewFromString("seed=3;analyzer.eqset.split=p=0.5;analyzer.eqset.migrate=p=0.5")
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 100)
		for i := range out {
			if interleave {
				in.Fire(EqMigrate, int64(i))
			}
			out[i] = in.Fire(EqSplit, int64(i))
		}
		return out
	}
	plain, mixed := seq(false), seq(true)
	for i := range plain {
		if plain[i] != mixed[i] {
			t.Fatalf("site stream perturbed by sibling site at eval %d", i)
		}
	}
}

func TestFireJournalsToRecorder(t *testing.T) {
	rec := recorder.NewClock(16, func() int64 { return 0 })
	in, err := NewFromString("seed=1;trace.invalidate=every=1")
	if err != nil {
		t.Fatal(err)
	}
	in.SetRecorder(rec)
	if !in.Fire(TraceInvalidate, 123) {
		t.Fatal("every=1 did not fire")
	}
	want := []string{"dropped=0", "0 fault_inject site=trace.invalidate arg=123"}
	if got := rec.Lines(10); !slices.Equal(got, want) {
		t.Fatalf("journal = %q, want %q", got, want)
	}
}

func TestCrashPanics(t *testing.T) {
	in, err := NewFromString("seed=1;server.worker.panic=every=1")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "injected crash at server.worker.panic") {
			t.Fatalf("recovered %v", r)
		}
	}()
	in.Crash(WorkerPanic, 1)
	t.Fatal("Crash did not panic")
}

func TestPlanCopyIsolation(t *testing.T) {
	p, err := Parse("seed=1;analyzer.eqset.split=p=1")
	if err != nil {
		t.Fatal(err)
	}
	in := New(p)
	p.Rules[EqMigrate] = Rule{Prob: 1}
	if in.Fire(EqMigrate, 0) || in.String() != "seed=1;analyzer.eqset.split=p=1" {
		t.Fatal("New shares the caller's rule map")
	}
}
