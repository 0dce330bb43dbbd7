package trace_test

// Record and replay moved to internal/autotrace; these tests hold the
// stand-in to the bracketed loops benchmarks/visperf drives through it
// (exact values, every launch analyzed by the inner analyzer) and hold the
// autotracer to replaying the same loops with no brackets.

import (
	"testing"

	"visibility/internal/autotrace"
	"visibility/internal/core"
	"visibility/internal/data"
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

// loop produces iteration it's launches.
type loop func(s *core.Stream, p, g *region.Partition, it int) []*core.Task

// figure1 is the Figure 1 loop body: three t1 then three t2 launches.
func figure1(s *core.Stream, p, g *region.Partition, _ int) []*core.Task {
	var out []*core.Task
	for i := 0; i < 3; i++ {
		out = append(out, testutil.LaunchT1(s, p, g, i))
	}
	for i := 0; i < 3; i++ {
		out = append(out, testutil.LaunchT2(s, p, g, i))
	}
	return out
}

// runExact drives iters iterations of body through the analyzer wrap
// builds over the inner one, calling bracket (if non-nil) before and after
// each iteration, and fails on any task input that differs from the
// sequential interpreter's. It returns the inner analyzer.
func runExact(t *testing.T, fac core.Factory, iters int, body loop,
	wrap func(core.Analyzer) core.Analyzer, bracket func(it int, begin bool)) core.Analyzer {
	t.Helper()
	tree, p, g := testutil.GraphTree()
	init := testutil.FullInit(tree)

	seq := core.NewSeq(init)
	seqStream := core.NewStream(tree)
	var wants [][]*data.Store
	for it := 0; it < iters; it++ {
		for _, task := range body(seqStream, p, g, it) {
			wants = append(wants, seq.Run(task, core.HashKernel{}))
		}
	}

	inner := fac.New(tree)
	launch, inputs := testutil.Serial(t, wrap(inner), init)
	stream := core.NewStream(tree)
	for it := 0; it < iters; it++ {
		if bracket != nil {
			bracket(it, true)
		}
		for _, task := range body(stream, p, g, it) {
			launch(task)
		}
		if bracket != nil {
			bracket(it, false)
		}
	}

	for id, want := range wants {
		for ri := range want {
			if want[ri] != nil && !want[ri].Equal(inputs[id][ri]) {
				t.Fatalf("%s: task %d req %d diverged:\n%s", fac.Name, id, ri, want[ri].Diff(inputs[id][ri]))
			}
		}
	}
	return inner
}

// standIn wraps an analyzer in the stand-in and brackets every iteration
// after the first with Begin(id)/End, as the retired tracer's callers did.
func standIn(id int) (func(core.Analyzer) core.Analyzer, func(int, bool)) {
	var tr *trace.Tracer
	wrap := func(an core.Analyzer) core.Analyzer { tr = trace.New(an, core.Options{}); return tr }
	bracket := func(it int, begin bool) {
		switch {
		case it == 0:
		case begin:
			tr.Begin(id)
		default:
			tr.End()
		}
	}
	return wrap, bracket
}

// autotraced wraps an analyzer in the autotracer and keeps it in *auto.
func autotraced(auto **autotrace.Auto) func(core.Analyzer) core.Analyzer {
	return func(an core.Analyzer) core.Analyzer { *auto = autotrace.New(an, core.Options{}); return *auto }
}

// TestTracedExecutionMatchesSequential runs eight iterations of the Figure
// 1 loop, bracketed through the stand-in and unbracketed through the
// autotracer: both match the sequential interpreter, the stand-in hands
// all 48 launches to the inner analyzer, and the autotracer records two
// iterations and replays the four after them.
func TestTracedExecutionMatchesSequential(t *testing.T) {
	for _, fac := range factories() {
		fac := fac
		t.Run(fac.Name, func(t *testing.T) {
			wrap, bracket := standIn(7)
			if got := runExact(t, fac, 8, figure1, wrap, bracket).Stats().Launches; got != 48 {
				t.Errorf("stand-in: inner analyzer saw %d launches, want 48", got)
			}

			var auto *autotrace.Auto
			runExact(t, fac, 8, figure1, autotraced(&auto), nil)
			st := auto.AutoStats()
			if st.Trace.Recorded != 2*6 {
				t.Errorf("recorded %d launches, want 12 (two loop iterations)", st.Trace.Recorded)
			}
			if st.Trace.Replayed != 4*6 {
				t.Errorf("replayed %d launches, want 24 (four replayed iterations)", st.Trace.Replayed)
			}
			if st.Trace.Invalidations != 0 {
				t.Errorf("unexpected invalidations: %d", st.Trace.Invalidations)
			}
		})
	}
}

// TestReplaySkipsUnderlyingAnalysis drives a three-launch loop: through
// the stand-in every bracketed launch reaches the wrapped analyzer, while
// the autotracer's replayed instances do not touch it until a launch that
// leaves the loop makes it catch up.
func TestReplaySkipsUnderlyingAnalysis(t *testing.T) {
	tree, p, g := testutil.GraphTree()
	probe := func(s *core.Stream) *core.Task {
		return s.Launch("probe", core.Req{Region: tree.Root, Field: 0, Priv: privilege.Reads()})
	}
	emit := func(an core.Analyzer, s *core.Stream) {
		for i := 0; i < 3; i++ {
			an.Analyze(testutil.LaunchT1(s, p, g, i))
		}
	}

	an := warnock.New(tree, core.Options{})
	tr := trace.New(an, core.Options{})
	stream := core.NewStream(tree)
	emit(tr, stream)
	for i := 0; i < 3; i++ {
		tr.Begin(1)
		emit(tr, stream)
		tr.End()
	}
	tr.Analyze(probe(stream))
	if got := an.Stats().Launches; got != 4*3+1 {
		t.Errorf("stand-in: wrapped analyzer saw %d launches, want 13", got)
	}

	tree, p, g = testutil.GraphTree()
	an = warnock.New(tree, core.Options{})
	auto := autotrace.New(an, core.Options{})
	stream = core.NewStream(tree)
	emit(auto, stream) // watch
	emit(auto, stream) // watch; the candidate commits on the last launch
	emit(auto, stream) // record
	emit(auto, stream) // record again; the two recordings agree
	launchesAfterRecord := an.Stats().Launches
	emit(auto, stream) // replay
	emit(auto, stream) // replay
	if got := an.Stats().Launches; got != launchesAfterRecord {
		t.Errorf("wrapped analyzer observed %d launches during replay, want 0", got-launchesAfterRecord)
	}
	auto.Analyze(probe(stream))
	if got := an.Stats().Launches; got != launchesAfterRecord+6+1 {
		t.Errorf("after catch-up: %d launches, want %d", got, launchesAfterRecord+7)
	}
}

// TestInvalidationOnStructureChange runs a loop whose fifth iteration
// keeps its first launch and changes the rest. Bracketed through the
// stand-in, nothing is replayed and the values are exact; through the
// autotracer, the diverging instance is invalidated and falls back to real
// analysis, the matching iterations replay, and the values are exact.
func TestInvalidationOnStructureChange(t *testing.T) {
	body := func(s *core.Stream, p, g *region.Partition, it int) []*core.Task {
		out := []*core.Task{testutil.LaunchT1(s, p, g, 0)}
		for i := 1; i < 3; i++ {
			if it == 4 {
				out = append(out, testutil.LaunchT2(s, p, g, i))
			} else {
				out = append(out, testutil.LaunchT1(s, p, g, i))
			}
		}
		return out
	}
	fac := factories()[2]

	wrap, bracket := standIn(1)
	if got := runExact(t, fac, 10, body, wrap, bracket).Stats().Launches; got != 30 {
		t.Errorf("stand-in: inner analyzer saw %d launches, want 30", got)
	}

	var auto *autotrace.Auto
	runExact(t, fac, 10, body, autotraced(&auto), nil)
	st := auto.AutoStats()
	if st.Trace.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1 for the diverging iteration", st.Trace.Invalidations)
	}
	if st.Trace.Replayed == 0 {
		t.Error("expected the matching iterations to replay")
	}
}
