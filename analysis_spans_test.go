package visibility_test

import (
	"fmt"
	"strings"
	"testing"

	"visibility"
	"visibility/internal/harness"
	"visibility/internal/obs"
	"visibility/internal/obs/recorder"
)

// checkOneSpanPerAnalysis checks the span budget of an analysis stack:
// every recorded span is alg's analyze span, one per launch the
// analyzer analyzed (stats.Launches), and a replayed launch adds none, so
// analyzed plus replayed launches are all the launches.
func checkOneSpanPerAnalysis(t *testing.T, alg string, spans *obs.Buffer, analyzed, replayed int64, launches int, auto bool) {
	t.Helper()
	if spans.Dropped() != 0 {
		t.Fatalf("span ring dropped %d spans; raise its capacity", spans.Dropped())
	}
	got := spans.Snapshot()
	for _, s := range got {
		if s.Cat != "analysis" || s.Name != alg+".analyze" {
			t.Fatalf("span %q (cat %q), want only %s.analyze (cat analysis)", s.Name, s.Cat, alg)
		}
	}
	if int64(len(got)) != analyzed {
		t.Errorf("%d spans, want one per analyzed launch (%d)", len(got), analyzed)
	}
	if auto && replayed == 0 {
		t.Error("autotraced leg never replayed")
	}
	if analyzed+replayed != int64(launches) {
		t.Errorf("analyzed %d + replayed %d launches, want all %d", analyzed, replayed, launches)
	}
}

// TestOneSpanPerAnalyzedLaunch pins the analysis span budget on both
// entry points, the Runtime and a harness cell, for every analyzer plain
// and autotraced: an analyzed launch records exactly one span, named
// <alg>.analyze, and a replayed launch records none.
func TestOneSpanPerAnalyzedLaunch(t *testing.T) {
	app, err := harness.FindApp("circuit")
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"raycast", "warnock", "paint"} {
		for _, auto := range []bool{false, true} {
			t.Run(fmt.Sprintf("runtime/%s/auto=%v", alg, auto), func(t *testing.T) {
				const iters = 8
				spans := obs.NewBuffer(1 << 10)
				rt := visibility.New(visibility.Config{Algorithm: alg, AutoTrace: auto, Spans: spans})
				defer rt.Close()
				g := rt.CreateRegion("g", visibility.Line(0, 15), "v")
				blocks := g.PartitionEqual("B", 4)
				for it := 0; it < iters; it++ {
					for i := 0; i < 4; i++ {
						rt.Launch(visibility.TaskSpec{
							Name:     "step",
							Accesses: []visibility.Access{visibility.Write(blocks.Sub(i), "v")},
						})
					}
				}
				// Checked before any further launch: one that leaves the
				// loop makes the analyzer catch up on the replayed launches.
				checkOneSpanPerAnalysis(t, alg, spans, rt.Stats(g).Launches,
					rt.AutoTraceStats(g).Trace.Replayed, iters*4, auto)
			})
			t.Run(fmt.Sprintf("harness/%s/auto=%v", alg, auto), func(t *testing.T) {
				spans := obs.NewBuffer(1 << 12)
				r, err := harness.Run(harness.Config{
					App: app.Build, AppName: "circuit", Algorithm: alg, DCR: alg != "paint",
					Nodes: 2, MeasureIters: 2, AutoTrace: auto, Spans: spans,
				})
				if err != nil {
					t.Fatal(err)
				}
				checkOneSpanPerAnalysis(t, alg, spans, r.Stats.Launches,
					r.Metrics["trace/replayed"], r.Launches, auto)
			})
		}
	}
}

// TestOneJournalLinePerLaunch pins the flight recorder's budget on the
// Runtime for every analyzer plain and autotraced: each launch journals
// exactly one task_launch line, and the only other lines are the
// autotracer's trace_* outcomes. An analysis journals nothing, however
// many sets it splits or coalesces.
func TestOneJournalLinePerLaunch(t *testing.T) {
	for _, alg := range []string{"raycast", "warnock", "paint"} {
		for _, auto := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/auto=%v", alg, auto), func(t *testing.T) {
				const iters = 8
				rec := recorder.New(1 << 10)
				rt := visibility.New(visibility.Config{Algorithm: alg, AutoTrace: auto, Recorder: rec})
				defer rt.Close()
				g := rt.CreateRegion("g", visibility.Line(0, 15), "v")
				blocks := g.PartitionEqual("B", 4)
				halves := g.PartitionEqual("H", 2)
				launches := 0
				for it := 0; it < iters; it++ {
					for i := 0; i < 4; i++ {
						rt.Launch(visibility.TaskSpec{
							Name:     "step",
							Accesses: []visibility.Access{visibility.Write(blocks.Sub(i), "v")},
						})
						launches++
					}
					for i := 0; i < 2; i++ {
						rt.Launch(visibility.TaskSpec{
							Name:     "sum",
							Accesses: []visibility.Access{visibility.Read(halves.Sub(i), "v")},
						})
						launches++
					}
				}
				if rec.Dropped() != 0 {
					t.Fatalf("recorder dropped %d events; raise its capacity", rec.Dropped())
				}
				tasks, traced := map[int64]bool{}, 0
				for _, e := range rec.Snapshot() {
					switch {
					case e.Kind == recorder.KindTaskLaunch:
						if tasks[e.A] {
							t.Errorf("task %d journaled twice", e.A)
						}
						tasks[e.A] = true
					case auto && strings.HasPrefix(e.Kind.String(), "trace_"):
						traced++
					default:
						t.Fatalf("journaled %s; want only task_launch and, autotraced, trace_* lines", e.Kind)
					}
				}
				if len(tasks) != launches {
					t.Errorf("%d task_launch lines, want one per launch (%d)", len(tasks), launches)
				}
				if auto && traced == 0 {
					t.Error("autotraced leg journaled no trace outcome")
				}
			})
		}
	}
}
