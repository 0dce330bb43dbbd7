package autotrace_test

import (
	"bytes"
	"strings"
	"testing"

	"visibility/internal/autotrace"
	"visibility/internal/core"
	"visibility/internal/data"
	"visibility/internal/fault"
	"visibility/internal/obs"
	"visibility/internal/obs/recorder"
	"visibility/internal/paint"
	"visibility/internal/privilege"
	"visibility/internal/raycast"
	"visibility/internal/region"
	"visibility/internal/testutil"
	"visibility/internal/warnock"
)

func factories() []core.Factory {
	return []core.Factory{
		{Name: "paint", New: func(tr *region.Tree) core.Analyzer { return paint.NewPainter(tr, core.Options{}) }},
		{Name: "warnock", New: func(tr *region.Tree) core.Analyzer { return warnock.New(tr, core.Options{}) }},
		{Name: "raycast", New: func(tr *region.Tree) core.Analyzer { return raycast.New(tr, core.Options{}) }},
	}
}

// schedule produces iteration it's launches; the autotracer sees the
// concatenated stream with no brackets at all.
type schedule func(s *core.Stream, p, g *region.Partition, it int) []*core.Task

// loopIter is the Figure 1 loop body: three t1 then three t2 launches.
func loopIter(s *core.Stream, p, g *region.Partition, _ int) []*core.Task {
	var out []*core.Task
	for i := 0; i < 3; i++ {
		out = append(out, testutil.LaunchT1(s, p, g, i))
	}
	for i := 0; i < 3; i++ {
		out = append(out, testutil.LaunchT2(s, p, g, i))
	}
	return out
}

// runSchedule drives iters iterations of sched through an autotraced
// analyzer with NO explicit trace brackets, checks every result against a
// plain analyzer of the same kind in lockstep and every task input
// against the sequential interpreter, and returns the autotracer.
func runSchedule(t *testing.T, fac core.Factory, iters int, opts core.Options, sched schedule) *autotrace.Auto {
	t.Helper()
	tree, p, g := testutil.GraphTree()
	init := testutil.FullInit(tree)
	kern := core.HashKernel{}

	seq := core.NewSeq(init)
	seqStream := core.NewStream(tree)
	var wants [][]*data.Store
	for it := 0; it < iters; it++ {
		for _, task := range sched(seqStream, p, g, it) {
			wants = append(wants, seq.Run(task, kern))
		}
	}

	auto := autotrace.New(fac.New(tree), opts)
	launch, inputs := testutil.Serial(t, testutil.Lockstep(t, auto, fac.New(tree)), init)
	stream := core.NewStream(tree)
	for it := 0; it < iters; it++ {
		for _, task := range sched(stream, p, g, it) {
			launch(task)
		}
	}

	for id, want := range wants {
		have := inputs[id]
		for ri := range want {
			if want[ri] == nil {
				continue
			}
			if !want[ri].Equal(have[ri]) {
				t.Fatalf("%s: task %d req %d diverged under autotracing:\n%s",
					fac.Name, id, ri, want[ri].Diff(have[ri]))
			}
		}
	}
	return auto
}

// TestAutoMatchesSequential checks the full pipeline on the unbracketed
// Figure 1 loop: two iterations to detect, two to record, the rest
// replay — and every value matches the sequential interpreter.
func TestAutoMatchesSequential(t *testing.T) {
	for _, fac := range factories() {
		fac := fac
		t.Run(fac.Name, func(t *testing.T) {
			auto := runSchedule(t, fac, 10, core.Options{}, loopIter)
			st := auto.AutoStats()
			if st.Candidates != 1 {
				t.Errorf("candidates = %d, want 1", st.Candidates)
			}
			if st.Aborts != 0 {
				t.Errorf("aborts = %d, want 0", st.Aborts)
			}
			// Iterations 0-1 detect, 2-3 record, 4-9 replay; each recorded
			// or replayed iteration is one instance.
			if st.Instances != 8 {
				t.Errorf("instances = %d, want 8", st.Instances)
			}
			if st.Trace.Recorded != 2*6 {
				t.Errorf("recorded %d launches, want 12 (two loop iterations)", st.Trace.Recorded)
			}
			if st.Trace.Replayed != 6*6 {
				t.Errorf("replayed %d launches, want 36 (six replayed iterations)", st.Trace.Replayed)
			}
			if st.Trace.Invalidations != 0 {
				t.Errorf("invalidations = %d, want 0", st.Trace.Invalidations)
			}
		})
	}
}

// TestAutoReplaySkipsUnderlyingAnalysis proves replayed instances never
// reach the wrapped analyzer.
func TestAutoReplaySkipsUnderlyingAnalysis(t *testing.T) {
	tree, p, g := testutil.GraphTree()
	an := warnock.New(tree, core.Options{})
	auto := autotrace.New(an, core.Options{})
	stream := core.NewStream(tree)
	emit := func() {
		for i := 0; i < 3; i++ {
			auto.Analyze(testutil.LaunchT1(stream, p, g, i))
		}
		for i := 0; i < 3; i++ {
			auto.Analyze(testutil.LaunchT2(stream, p, g, i))
		}
	}
	emit() // watch
	emit() // watch; candidate commits on the last launch
	emit() // record
	emit() // record again; the two recordings agree
	launchesAfterRecord := an.Stats().Launches
	emit() // replay
	emit() // replay
	if got := an.Stats().Launches; got != launchesAfterRecord {
		t.Errorf("wrapped analyzer observed %d launches during replay, want 0", got-launchesAfterRecord)
	}
	if st := auto.AutoStats(); st.Trace.Replayed != 12 {
		t.Errorf("replayed %d launches, want 12", st.Trace.Replayed)
	}
	// A launch that leaves the loop forces the analyzer to catch up on
	// the replayed instances before analyzing it.
	auto.Analyze(stream.Launch("probe",
		core.Req{Region: tree.Root, Field: 0, Priv: privilege.Reads()}))
	if got := an.Stats().Launches; got != launchesAfterRecord+12+1 {
		t.Errorf("after catch-up: %d launches, want %d", got, launchesAfterRecord+13)
	}
}

// TestAutoPendingGauge reads "trace/pending" — launches replayed but not
// yet analyzed — and which launches replayed: launches 24–35 replay, the
// rest are analyzed, and the gauge returns to 0 once a launch that leaves
// the loop drains the debt.
func TestAutoPendingGauge(t *testing.T) {
	tree, p, g := testutil.GraphTree()
	reg := obs.NewRegistry()
	auto := autotrace.New(raycast.New(tree, core.Options{}), core.Options{Metrics: reg})
	stream := core.NewStream(tree)
	var replayed []int
	analyze := func(task *core.Task) {
		before := auto.AutoStats().Trace.Replayed
		auto.Analyze(task)
		if auto.AutoStats().Trace.Replayed > before {
			replayed = append(replayed, task.ID)
		}
	}
	// Iterations 0-1 detect, 2-3 record, 4-5 replay (launches 24..35).
	for it := 0; it < 6; it++ {
		for _, task := range loopIter(stream, p, g, it) {
			analyze(task)
		}
	}
	if got := reg.Snapshot()["trace/pending"]; got != 12 {
		t.Errorf("trace/pending = %d after two replayed instances of 6, want 12", got)
	}

	analyze(stream.Launch("probe", core.Req{Region: tree.Root, Field: 0, Priv: privilege.Reads()}))
	if got := reg.Snapshot()["trace/pending"]; got != 0 {
		t.Errorf("trace/pending = %d after a drain, want 0", got)
	}
	if len(replayed) != 12 || replayed[0] != 24 || replayed[11] != 35 {
		t.Errorf("replayed launches %v, want 24..35 and every other launch analyzed", replayed)
	}
}

// TestAutoTraceSoundness runs the autotraced dependence output of the
// Figure 1 loop through the exact checker, replayed iterations included.
func TestAutoTraceSoundness(t *testing.T) {
	tree, p, g := testutil.GraphTree()
	auto := autotrace.New(raycast.New(tree, core.Options{}), core.Options{})
	stream := core.NewStream(tree)
	var got [][]int
	for it := 0; it < 7; it++ {
		for _, task := range loopIter(stream, p, g, it) {
			got = append(got, auto.Analyze(task).Deps)
		}
	}
	if st := auto.AutoStats(); st.Trace.Replayed != 3*6 {
		t.Errorf("replayed %d launches, want 18", st.Trace.Replayed)
	}
	if err := core.CheckSound(got, core.ExactDeps(stream.Tasks)); err != nil {
		t.Fatal(err)
	}
}

// TestReplayAllocations pins a steady replayed launch of the Figure 1
// loop on ray casting at zero allocations: the replayed Result and its
// slices come from the autotracer's chunks, and the launch it owes joins
// pending, both amortized far below one allocation a launch. Every task
// is launched up front, so only Analyze is measured.
func TestReplayAllocations(t *testing.T) {
	const runs = 600
	tree, p, g := testutil.GraphTree()
	auto := autotrace.New(raycast.New(tree, core.Options{}), core.Options{})
	stream := core.NewStream(tree)
	var tasks []*core.Task
	for it := 0; len(tasks) < 6*6+runs+1; it++ {
		tasks = append(tasks, loopIter(stream, p, g, it)...)
	}
	// Iterations 0-1 detect, 2-3 record, 4-5 replay.
	for _, task := range tasks[:6*6] {
		auto.Analyze(task)
	}
	next := 6 * 6
	allocs := testing.AllocsPerRun(runs, func() {
		auto.Analyze(tasks[next])
		next++
	})
	if st := auto.AutoStats(); st.Trace.Replayed != int64(next-4*6) {
		t.Fatalf("replayed %d launches, want %d", st.Trace.Replayed, next-4*6)
	}
	if allocs != 0 {
		t.Errorf("a replayed launch allocates %v times, want 0", allocs)
	}
}

// TestAutoSingleLaunchLoop checks the degenerate but common period-1
// stream: the same launch over and over.
func TestAutoSingleLaunchLoop(t *testing.T) {
	spin := func(s *core.Stream, _, _ *region.Partition, _ int) []*core.Task {
		return []*core.Task{s.Launch("spin",
			core.Req{Region: s.Tree.Root, Field: 0, Priv: privilege.Writes()})}
	}
	auto := runSchedule(t, factories()[1], 8, core.Options{}, spin)
	st := auto.AutoStats()
	if st.Candidates != 1 {
		t.Errorf("candidates = %d, want 1", st.Candidates)
	}
	if st.Trace.Recorded != 2 || st.Trace.Replayed != 4 {
		t.Errorf("recorded/replayed = %d/%d, want 2/4", st.Trace.Recorded, st.Trace.Replayed)
	}
}

// TestAutoDivergenceRecovers scrambles one iteration mid-replay: the
// first launch still matches (so the instance opens), the second does
// not, forcing an invalidation — then the loop resumes and must be
// re-detected, re-recorded, and replayed again, with all values exact.
func TestAutoDivergenceRecovers(t *testing.T) {
	scrambled := func(s *core.Stream, p, g *region.Partition, it int) []*core.Task {
		if it != 5 {
			return loopIter(s, p, g, it)
		}
		var out []*core.Task
		out = append(out, testutil.LaunchT1(s, p, g, 0))
		for i := 0; i < 3; i++ {
			out = append(out, testutil.LaunchT2(s, p, g, i))
		}
		out = append(out, testutil.LaunchT1(s, p, g, 1))
		out = append(out, testutil.LaunchT1(s, p, g, 2))
		return out
	}
	auto := runSchedule(t, factories()[2], 12, core.Options{}, scrambled)
	st := auto.AutoStats()
	if st.Aborts != 1 {
		t.Errorf("aborts = %d, want 1", st.Aborts)
	}
	if st.Trace.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Trace.Invalidations)
	}
	if st.Candidates != 2 {
		t.Errorf("candidates = %d, want 2 (re-detected after the scramble)", st.Candidates)
	}
	// Iteration 4 replayed before the scramble; 10-11 after recovery.
	if st.Trace.Replayed <= 2*6 {
		t.Errorf("replayed %d launches, want replay to resume after recovery", st.Trace.Replayed)
	}
}

// TestAutoCleanLoopExit ends the loop between instances: the armed
// candidate retires without an invalidation and the tail launches are
// analyzed directly.
func TestAutoCleanLoopExit(t *testing.T) {
	tail := func(s *core.Stream, p, g *region.Partition, it int) []*core.Task {
		if it < 7 {
			return loopIter(s, p, g, it)
		}
		return []*core.Task{s.Launch("after",
			core.Req{Region: s.Tree.Root, Field: 0, Priv: privilege.Reads()})}
	}
	auto := runSchedule(t, factories()[0], 8, core.Options{}, tail)
	st := auto.AutoStats()
	if st.Aborts != 0 {
		t.Errorf("aborts = %d, want 0: a loop exit between instances is clean", st.Aborts)
	}
	if st.Trace.Invalidations != 0 {
		t.Errorf("invalidations = %d, want 0", st.Trace.Invalidations)
	}
	if st.Trace.Replayed != 3*6 {
		t.Errorf("replayed %d launches, want 18", st.Trace.Replayed)
	}
}

// TestAutoForcedInvalidation arms the trace.invalidate fault site so a
// replaying instance aborts mid-flight, and checks full recovery: exact
// values, a journaled fault_inject + trace_invalidate pair, and replay
// resuming after re-detection.
func TestAutoForcedInvalidation(t *testing.T) {
	rec := recorder.NewClock(4096, eventClock())
	inj := fault.New(fault.Plan{Seed: 1, Rules: map[fault.Site]fault.Rule{
		fault.TraceInvalidate: {Every: 4, Max: 1},
	}})
	inj.SetRecorder(rec)
	opts := core.Options{Recorder: rec, Faults: inj}
	auto := runSchedule(t, factories()[1], 12, opts, loopIter)
	st := auto.AutoStats()
	if got := inj.Fires(fault.TraceInvalidate); got != 1 {
		t.Fatalf("trace.invalidate fired %d times, want 1", got)
	}
	if st.Aborts != 1 || st.Trace.Invalidations != 1 {
		t.Errorf("aborts/invalidations = %d/%d, want 1/1", st.Aborts, st.Trace.Invalidations)
	}
	if st.Candidates != 2 {
		t.Errorf("candidates = %d, want 2 (loop re-detected after the forced abort)", st.Candidates)
	}
	if st.Trace.Replayed <= 3 {
		t.Errorf("replayed %d launches, want replay to resume after the forced abort", st.Trace.Replayed)
	}
	counts := map[recorder.Kind]int{}
	for _, e := range rec.Snapshot() {
		counts[e.Kind]++
	}
	if !strings.Contains(strings.Join(rec.Lines(4096), "\n"), " fault_inject site=trace.invalidate ") {
		t.Error("no fault_inject event journaled for trace.invalidate")
	}
	if counts[recorder.KindTraceCommit] != 2 {
		t.Errorf("journaled %d trace_commit events, want 2", counts[recorder.KindTraceCommit])
	}
	if counts[recorder.KindTraceInvalidate] != 1 {
		t.Errorf("journaled %d trace_invalidate events, want 1", counts[recorder.KindTraceInvalidate])
	}
	if counts[recorder.KindTraceReplay] == 0 {
		t.Error("no trace_replay events journaled")
	}
}

// TestAutoJournalDeterministic runs the same autotraced workload twice
// on event-count clocks and requires byte-identical flight-recorder
// dumps.
func TestAutoJournalDeterministic(t *testing.T) {
	run := func() []byte {
		rec := recorder.NewClock(4096, eventClock())
		auto := runSchedule(t, factories()[2], 9, core.Options{Recorder: rec}, loopIter)
		_ = auto
		var buf bytes.Buffer
		if err := rec.Dump(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Errorf("two identical autotraced runs produced different dumps (%d vs %d bytes)", len(a), len(b))
	}
}

// eventClock returns a deterministic clock advancing one tick per event.
func eventClock() func() int64 {
	var ticks int64
	return func() int64 { ticks++; return ticks }
}

// TestAutoMetricsPublished checks the autotrace and trace counters land
// on a shared obs registry under the expected keys.
func TestAutoMetricsPublished(t *testing.T) {
	tree, p, g := testutil.GraphTree()
	reg := obs.NewRegistry()
	auto := autotrace.New(warnock.New(tree, core.Options{}), core.Options{Metrics: reg})
	stream := core.NewStream(tree)
	for it := 0; it < 6; it++ {
		for i := 0; i < 3; i++ {
			auto.Analyze(testutil.LaunchT1(stream, p, g, i))
		}
		for i := 0; i < 3; i++ {
			auto.Analyze(testutil.LaunchT2(stream, p, g, i))
		}
	}
	snap := reg.Snapshot()
	for _, key := range []string{"autotrace/candidates", "autotrace/instances", "trace/recorded", "trace/replayed"} {
		if snap[key] == 0 {
			t.Errorf("metric %q = 0 after an autotraced loop, want > 0", key)
		}
	}
	if snap["autotrace/aborts"] != 0 || snap["trace/invalidations"] != 0 {
		t.Errorf("unexpected aborts/invalidations in %v", snap)
	}
}

func TestAutoName(t *testing.T) {
	tree, _, _ := testutil.GraphTree()
	auto := autotrace.New(warnock.New(tree, core.Options{}), core.Options{})
	if auto.Name() != "warnock+autotrace" {
		t.Errorf("Name = %q", auto.Name())
	}
	if auto.Stats() == nil {
		t.Error("Stats nil")
	}
}

// TestAutoDeclinesUnreplayableLoop drives a loop whose painter trace can
// never replay: the painter's write depends on every earlier root read, so
// its deps grow by one each period and the two recordings disagree, while
// ray casting depends on the last read only and replays. The painter must
// record that loop exactly twice, then leave it alone (values still exact,
// checked by runSchedule), and still trace the different loop that
// follows.
func TestAutoDeclinesUnreplayableLoop(t *testing.T) {
	const first = 8 // iterations of the write-then-read-root body
	sched := func(s *core.Stream, p, g *region.Partition, it int) []*core.Task {
		if it >= first {
			return loopIter(s, p, g, it)
		}
		return []*core.Task{
			s.Launch("w", core.Req{Region: p.Subregions[0], Field: 0, Priv: privilege.Writes()}),
			s.Launch("r", core.Req{Region: s.Tree.Root, Field: 0, Priv: privilege.Reads()}),
		}
	}
	for _, tc := range []struct {
		fac                           core.Factory
		recorded, replayed, instances int64
	}{
		// Painter: iterations 2-3 record and are declined; 4-7 are
		// analyzed. Figure 1 loop: 8-9 detect, 10-11 record, 12-15 replay.
		{factories()[0], 2*2 + 2*6, 4 * 6, 2 + 6},
		// Ray casting replays the first loop too (iterations 4-7).
		{factories()[2], 2*2 + 2*6, 4*2 + 4*6, 6 + 6},
	} {
		t.Run(tc.fac.Name, func(t *testing.T) {
			st := runSchedule(t, tc.fac, first+8, core.Options{}, sched).AutoStats()
			if st.Candidates != 2 || st.Aborts != 0 || st.Trace.Invalidations != 0 {
				t.Errorf("candidates/aborts/invalidations = %d/%d/%d, want 2/0/0", st.Candidates, st.Aborts, st.Trace.Invalidations)
			}
			if st.Trace.Recorded != tc.recorded || st.Trace.Replayed != tc.replayed || st.Instances != tc.instances {
				t.Errorf("recorded/replayed/instances = %d/%d/%d, want %d/%d/%d",
					st.Trace.Recorded, st.Trace.Replayed, st.Instances, tc.recorded, tc.replayed, tc.instances)
			}
		})
	}
}

// TestAutoDeclinesPeriodVariantLoops drives loops whose two recordings
// agree modulo one period for some analyzers and not for others. Every
// loop is detected and recorded twice; one that agrees replays the other
// four of eight iterations, one that does not is declined and never
// replays. Either way every result matches a plain analyzer and every
// value the sequential interpreter (runSchedule).
func TestAutoDeclinesPeriodVariantLoops(t *testing.T) {
	for _, tc := range []struct {
		name   string
		period int64
		replay map[string]bool // the analyzers whose recordings agree
		sched  schedule
	}{
		// Every body reads P[0] from the write before the loop, a producer
		// that does not recur one period later: replaying it shifted would
		// name a task of the loop instead.
		{"older-producer", 2, nil, func(s *core.Stream, p, _ *region.Partition, it int) []*core.Task {
			var out []*core.Task
			if it == 0 {
				out = append(out, s.Launch("init", core.Req{Region: p.Subregions[0], Field: 0, Priv: privilege.Writes()}))
			}
			return append(out,
				s.Launch("r", core.Req{Region: p.Subregions[0], Field: 0, Priv: privilege.Reads()}),
				s.Launch("w", core.Req{Region: p.Subregions[1], Field: 0, Priv: privilege.Writes()}))
		}},
		// The root read sees P[1..2]'s initial contents next to the previous
		// instance's reduction into P[0], which the write bounds. The
		// painter's write depends on every earlier root read, so its deps
		// grow by one each period.
		{"initial-and-cross-reduction", 3, map[string]bool{"warnock": true, "raycast": true}, func(s *core.Stream, p, _ *region.Partition, _ int) []*core.Task {
			return []*core.Task{
				s.Launch("r", core.Req{Region: s.Tree.Root, Field: 0, Priv: privilege.Reads()}),
				s.Launch("w", core.Req{Region: p.Subregions[0], Field: 0, Priv: privilege.Writes()}),
				s.Launch("red", core.Req{Region: p.Subregions[0], Field: 0, Priv: privilege.Reduces(privilege.OpSum)}),
			}
		}},
		// The painter lists P[0]'s initial contents under the previous
		// instance's write to it, the same entry every period.
		{"initial-under-own-write", 1, map[string]bool{"paint": true, "warnock": true, "raycast": true}, func(s *core.Stream, p, _ *region.Partition, _ int) []*core.Task {
			return []*core.Task{s.Launch("w", core.Req{Region: p.Subregions[0], Field: 0, Priv: privilege.Writes()})}
		}},
		// No write bounds the reductions, so the root read's plan gains one
		// entry every period.
		{"accumulating-reductions", 2, nil, func(s *core.Stream, p, _ *region.Partition, _ int) []*core.Task {
			return []*core.Task{
				s.Launch("red", core.Req{Region: p.Subregions[0], Field: 0, Priv: privilege.Reduces(privilege.OpSum)}),
				s.Launch("r", core.Req{Region: s.Tree.Root, Field: 0, Priv: privilege.Reads()}),
			}
		}},
	} {
		for _, fac := range factories() {
			t.Run(tc.name+"/"+fac.Name, func(t *testing.T) {
				st := runSchedule(t, fac, 8, core.Options{}, tc.sched).AutoStats()
				replayed := int64(0)
				if tc.replay[fac.Name] {
					replayed = 4 * tc.period
				}
				if st.Candidates != 1 || st.Trace.Recorded != 2*tc.period || st.Trace.Replayed != replayed || st.Aborts != 0 {
					t.Errorf("candidates/recorded/replayed/aborts = %d/%d/%d/%d, want 1/%d/%d/0",
						st.Candidates, st.Trace.Recorded, st.Trace.Replayed, st.Aborts, 2*tc.period, replayed)
				}
			})
		}
	}
}
