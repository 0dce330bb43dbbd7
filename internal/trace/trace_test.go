package trace_test

import (
	"testing"

	"visibility/internal/core"
	"visibility/internal/obs"
	"visibility/internal/paint"
	"visibility/internal/privilege"
	"visibility/internal/raycast"
	"visibility/internal/region"
	"visibility/internal/testutil"
	"visibility/internal/trace"
	"visibility/internal/warnock"
)

func factories() []core.Factory {
	return []core.Factory{
		{Name: "paint", New: func(tr *region.Tree) core.Analyzer { return paint.NewPainter(tr, core.Options{}) }},
		{Name: "warnock", New: func(tr *region.Tree) core.Analyzer { return warnock.New(tr, core.Options{}) }},
		{Name: "raycast", New: func(tr *region.Tree) core.Analyzer { return raycast.New(tr, core.Options{}) }},
	}
}

// runTraced executes iterations of the Figure 1 loop through a traced
// engine (recording iteration 1, replaying 2..n) and compares every value
// against the sequential interpreter.
func runTraced(t *testing.T, fac core.Factory, iters int) *trace.Tracer {
	t.Helper()
	tree, p, g := testutil.GraphTree()
	init := testutil.FullInit(tree)
	kern := core.HashKernel{}

	seq := core.NewSeq(tree, init)
	seqStream := core.NewStream(tree)
	emit := func(s *core.Stream) []*core.Task {
		var out []*core.Task
		for i := 0; i < 3; i++ {
			out = append(out, testutil.LaunchT1(s, p, g, i))
		}
		for i := 0; i < 3; i++ {
			out = append(out, testutil.LaunchT2(s, p, g, i))
		}
		return out
	}
	for it := 0; it < iters; it++ {
		for _, task := range emit(seqStream) {
			seq.Run(task, kern)
		}
	}

	tr := trace.New(fac.New(tree), core.Options{})
	eng := core.NewEngine(tree, tr, init)
	eng.RecordInputs = true
	stream := core.NewStream(tree)
	for it := 0; it < iters; it++ {
		if it > 0 {
			tr.Begin(7)
		}
		tasks := emit(stream)
		for _, task := range tasks {
			eng.Launch(task, kern)
		}
		if it > 0 {
			tr.End()
		}
	}

	for id, want := range seq.Inputs {
		have := eng.Inputs[id]
		for ri := range want {
			if want[ri] == nil {
				continue
			}
			if !want[ri].Equal(have[ri]) {
				t.Fatalf("%s: task %d req %d diverged under tracing:\n%s",
					fac.Name, id, ri, want[ri].Diff(have[ri]))
			}
		}
	}
	return tr
}

func TestTracedExecutionMatchesSequential(t *testing.T) {
	for _, fac := range factories() {
		fac := fac
		t.Run(fac.Name, func(t *testing.T) {
			tr := runTraced(t, fac, 8)
			st := tr.TraceStats()
			if st.Recorded != 6 {
				t.Errorf("recorded %d launches, want 6 (one loop iteration)", st.Recorded)
			}
			if st.Replayed != 6*6 {
				t.Errorf("replayed %d launches, want 36 (six replayed iterations)", st.Replayed)
			}
			if st.Invalidations != 0 {
				t.Errorf("unexpected invalidations: %d", st.Invalidations)
			}
		})
	}
}

// TestReplaySkipsUnderlyingAnalysis checks that replayed instances do not
// touch the wrapped analyzer until it must catch up.
func TestReplaySkipsUnderlyingAnalysis(t *testing.T) {
	tree, p, g := testutil.GraphTree()
	an := warnock.New(tree, core.Options{})
	tr := trace.New(an, core.Options{})
	stream := core.NewStream(tree)

	emit := func() []*core.Task {
		var out []*core.Task
		for i := 0; i < 3; i++ {
			out = append(out, testutil.LaunchT1(stream, p, g, i))
		}
		return out
	}
	run := func(traced bool) {
		if traced {
			tr.Begin(1)
		}
		for _, task := range emit() {
			tr.Analyze(task)
		}
		if traced {
			tr.End()
		}
	}
	run(false) // warm-up: the loop's first instance reads initial contents
	run(true)  // record (producers now point one period back)
	launchesAfterRecord := an.Stats().Launches
	run(true) // replay
	run(true) // replay
	if got := an.Stats().Launches; got != launchesAfterRecord {
		t.Errorf("wrapped analyzer observed %d launches during replay, want 0", got-launchesAfterRecord)
	}
	// An untraced launch forces the analyzer to catch up on the replayed
	// instances before analyzing.
	tr.Analyze(stream.Launch("probe",
		core.Req{Region: tree.Root, Field: 0, Priv: privilege.Reads()}))
	if got := an.Stats().Launches; got != launchesAfterRecord+6+1 {
		t.Errorf("after catch-up: %d launches, want %d", got, launchesAfterRecord+7)
	}
}

// TestInvalidationOnStructureChange verifies that a diverging instance
// falls back to real analysis and still produces correct values.
func TestInvalidationOnStructureChange(t *testing.T) {
	tree, p, g := testutil.GraphTree()
	init := testutil.FullInit(tree)
	kern := core.HashKernel{}

	seq := core.NewSeq(tree, init)
	seqStream := core.NewStream(tree)
	tr := trace.New(raycast.New(tree, core.Options{}), core.Options{})
	eng := core.NewEngine(tree, tr, init)
	eng.RecordInputs = true
	stream := core.NewStream(tree)

	iter := func(s *core.Stream, swap bool) []*core.Task {
		var out []*core.Task
		for i := 0; i < 3; i++ {
			if swap {
				out = append(out, testutil.LaunchT2(s, p, g, i))
			} else {
				out = append(out, testutil.LaunchT1(s, p, g, i))
			}
		}
		return out
	}
	shapes := []bool{false, false, false, true, false} // iteration 3 diverges
	for _, s := range shapes {
		for _, task := range iter(seqStream, s) {
			seq.Run(task, kern)
		}
	}
	for it, s := range shapes {
		if it > 0 {
			tr.Begin(1)
		}
		for _, task := range iter(stream, s) {
			eng.Launch(task, kern)
		}
		if it > 0 {
			tr.End()
		}
	}
	for id, want := range seq.Inputs {
		have := eng.Inputs[id]
		for ri := range want {
			if want[ri] != nil && !want[ri].Equal(have[ri]) {
				t.Fatalf("task %d req %d diverged:\n%s", id, ri, want[ri].Diff(have[ri]))
			}
		}
	}
	if tr.TraceStats().Invalidations == 0 {
		t.Error("expected an invalidation for the diverging iteration")
	}
	if tr.TraceStats().Replayed == 0 {
		t.Error("expected the matching iterations to replay")
	}
}

// TestNonContiguousInstanceRecords verifies that a trace instance separated
// from the previous one by extra launches re-records instead of replaying
// with stale offsets — including launches of another trace, which is why
// the tracer keeps only the most recent trace that recorded a launch.
func TestNonContiguousInstanceRecords(t *testing.T) {
	tree, p, g := testutil.GraphTree()
	tr := trace.New(warnock.New(tree, core.Options{}), core.Options{})
	stream := core.NewStream(tree)

	one := func() {
		tr.Begin(1)
		for i := 0; i < 3; i++ {
			tr.Analyze(stream.Launch("w",
				core.Req{Region: p.Subregions[i], Field: 0, Priv: privilege.Writes()}))
		}
		tr.End()
	}
	_ = g
	one() // record
	// Interpose an untraced launch: the next instance is not contiguous.
	tr.Analyze(stream.Launch("gap", core.Req{Region: tree.Root, Field: 0, Priv: privilege.Reads()}))
	one() // must re-record
	if got := tr.TraceStats().Replayed; got != 0 {
		t.Errorf("non-contiguous instance replayed %d launches", got)
	}
	// The re-recording itself saw producers across the gap (more than one
	// period back), so it is not replayable either; the next instance
	// records once more with clean one-period offsets...
	one()
	if got := tr.TraceStats().Replayed; got != 0 {
		t.Errorf("gap-crossing recording replayed %d launches", got)
	}
	// ...and from then on instances replay.
	one()
	if got := tr.TraceStats().Replayed; got != 3 {
		t.Errorf("replayed %d launches, want 3", got)
	}

	// Bracket sequences after a warm-up that leaves trace A valid and
	// contiguous (a first recording on a fresh analyzer reads initial
	// contents it writes, so it takes a second one). Each instance is a
	// trace id, its launch count and the 1-based launch whose structure
	// diverges (0: none); the counts are past the warm-up.
	type instance struct{ id, launches, diverge int }
	const a, b = 1, 2
	for _, tc := range []struct {
		name               string
		seq                []instance
		recorded, replayed int64
	}{
		{"A,A", []instance{{a, 3, 0}}, 0, 3},
		{"A,B,A", []instance{{b, 3, 0}, {a, 3, 0}}, 6, 0},
		{"A,emptyB,A", []instance{{b, 0, 0}, {a, 3, 0}}, 0, 3},
		// A replay diverging at launch 2 analyzes its tail untraced; the
		// next instance records and the one after replays.
		{"A,A',A,A", []instance{{a, 3, 2}, {a, 3, 0}, {a, 3, 0}}, 3, 1 + 3},
	} {
		tr := trace.New(warnock.New(tree, core.Options{}), core.Options{})
		stream := core.NewStream(tree)
		seq := append([]instance{{a, 3, 0}, {a, 3, 0}}, tc.seq...)
		for k, in := range seq {
			if k == 2 {
				if st := tr.TraceStats(); st.Recorded != 6 || st.Replayed != 0 {
					t.Fatalf("%s: warm-up recorded %d, replayed %d; want 6, 0", tc.name, st.Recorded, st.Replayed)
				}
			}
			tr.Begin(in.id)
			for i := 0; i < in.launches; i++ {
				name := "w"
				if i+1 == in.diverge {
					name = "x"
				}
				tr.Analyze(stream.Launch(name,
					core.Req{Region: p.Subregions[i], Field: 0, Priv: privilege.Writes()}))
			}
			tr.End()
		}
		if st := tr.TraceStats(); st.Recorded-6 != tc.recorded || st.Replayed != tc.replayed {
			t.Errorf("%s: recorded %d, replayed %d past the warm-up; want %d, %d",
				tc.name, st.Recorded-6, st.Replayed, tc.recorded, tc.replayed)
		}
	}
}

// TestTraceSoundness runs the traced dependence output through the exact
// checker across several iterations.
func TestTraceSoundness(t *testing.T) {
	tree, p, g := testutil.GraphTree()
	tr := trace.New(raycast.New(tree, core.Options{}), core.Options{})
	stream := core.NewStream(tree)
	var got [][]int
	for it := 0; it < 6; it++ {
		if it > 0 {
			tr.Begin(1)
		}
		for i := 0; i < 3; i++ {
			got = append(got, tr.Analyze(testutil.LaunchT1(stream, p, g, i)).Deps)
		}
		for i := 0; i < 3; i++ {
			got = append(got, tr.Analyze(testutil.LaunchT2(stream, p, g, i)).Deps)
		}
		if it > 0 {
			tr.End()
		}
	}
	if err := core.CheckSound(got, core.ExactDeps(stream.Tasks)); err != nil {
		t.Fatal(err)
	}
}

func TestBeginEndMisuse(t *testing.T) {
	tree, _, _ := testutil.GraphTree()
	tr := trace.New(warnock.New(tree, core.Options{}), core.Options{})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("End without Begin should panic")
			}
		}()
		tr.End()
	}()
	tr.Begin(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nested Begin should panic")
			}
		}()
		tr.Begin(2)
	}()
}

func TestTracerName(t *testing.T) {
	tree, _, _ := testutil.GraphTree()
	tr := trace.New(warnock.New(tree, core.Options{}), core.Options{})
	if tr.Name() != "warnock+trace" {
		t.Errorf("Name = %q", tr.Name())
	}
}

// TestPendingGauge reads "trace/pending" — launches replayed but not yet
// analyzed — and the runs of replayed launches: a steady loop is one run,
// and the gauge returns to 0 once an untraced launch drains the debt.
func TestPendingGauge(t *testing.T) {
	tree, p, g := testutil.GraphTree()
	reg := obs.NewRegistry()
	// Instances 1 and 2 record (the first reads initial contents the loop
	// overwrites); 3 and 4 replay.
	tr := trace.New(raycast.New(tree, core.Options{}), core.Options{Metrics: reg})
	stream := core.NewStream(tree)
	for it := 0; it < 4; it++ {
		tr.Begin(1)
		for i := 0; i < 3; i++ {
			tr.Analyze(testutil.LaunchT1(stream, p, g, i))
		}
		for i := 0; i < 3; i++ {
			tr.Analyze(testutil.LaunchT2(stream, p, g, i))
		}
		tr.End()
	}
	if got := reg.Snapshot()["trace/pending"]; got != 12 {
		t.Errorf("trace/pending = %d after two replayed instances of 6, want 12", got)
	}
	if rs := tr.Replays(); len(rs) != 1 || rs[0] != (trace.Replay{First: 12, Last: 23, Trace: 1}) {
		t.Errorf("Replays = %v, want one run 12..23 of trace 1", rs)
	}
	if id, ok := trace.ReplayOf(tr.Replays(), 12); !ok || id != 1 {
		t.Errorf("ReplayOf(12) = %d, %v; want trace 1", id, ok)
	}

	tr.Analyze(testutil.LaunchT1(stream, p, g, 0)) // untraced: drains
	if got := reg.Snapshot()["trace/pending"]; got != 0 {
		t.Errorf("trace/pending = %d after a drain, want 0", got)
	}
	for _, id := range []int{11, 24} {
		if _, ok := trace.ReplayOf(tr.Replays(), id); ok {
			t.Errorf("ReplayOf(%d) reports a replay; the launch was analyzed", id)
		}
	}
}
