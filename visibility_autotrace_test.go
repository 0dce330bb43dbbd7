package visibility_test

import (
	"testing"

	"visibility"
	"visibility/internal/obs"
)

// autoLoopRun executes the same unbracketed loop app under cfg and
// returns the final field contents.
func autoLoopRun(t *testing.T, cfg visibility.Config, iters int) ([]float64, *visibility.Runtime, *visibility.Region) {
	t.Helper()
	rt := visibility.New(cfg)
	g := rt.CreateRegion("g", visibility.Line(0, 15), "v")
	blocks := g.PartitionEqual("B", 4)
	for it := 0; it < iters; it++ {
		for i := 0; i < 4; i++ {
			rt.Launch(visibility.TaskSpec{
				Name:     "step",
				Accesses: []visibility.Access{visibility.Write(blocks.Sub(i), "v")},
				Kernel: visibility.Kernel{Write: func(_ int, _ visibility.Point, in float64) float64 {
					return in + 1
				}},
			})
		}
	}
	snap := rt.Read(g, "v")
	out := make([]float64, 16)
	for x := range out {
		out[x], _ = snap.Get(visibility.Pt(int64(x)))
	}
	return out, rt, g
}

// TestPublicAutoTrace drives the loop with no brackets at all: the
// runtime must detect, record, and replay it on its own, and the final
// contents must match an untraced runtime exactly.
func TestPublicAutoTrace(t *testing.T) {
	const iters = 8
	want, plain, _ := autoLoopRun(t, visibility.Config{}, iters)
	defer plain.Close()
	got, rt, g := autoLoopRun(t, visibility.Config{AutoTrace: true, Validate: true}, iters)
	defer rt.Close()
	for x := range want {
		if got[x] != want[x] {
			t.Fatalf("point %d = %v under autotracing, want %v", x, got[x], want[x])
		}
	}
	st := rt.AutoTraceStats(g)
	if st.Candidates != 1 {
		t.Errorf("candidates = %d, want 1", st.Candidates)
	}
	// Iterations 0-1 detect, 2-3 record, 4-7 replay.
	if st.Trace.Recorded != 2*4 || st.Trace.Replayed != 4*4 {
		t.Errorf("recorded/replayed = %d/%d, want 8/16", st.Trace.Recorded, st.Trace.Replayed)
	}
	if st.Aborts != 0 || st.Trace.Invalidations != 0 {
		t.Errorf("aborts/invalidations = %d/%d, want 0/0", st.Aborts, st.Trace.Invalidations)
	}
}

// TestAutoTraceStatsZero checks the accessor is safe without AutoTrace.
func TestAutoTraceStatsZero(t *testing.T) {
	rt := visibility.New(visibility.Config{})
	defer rt.Close()
	g := rt.CreateRegion("g", visibility.Line(0, 3), "v")
	rt.Read(g, "v")
	st := rt.AutoTraceStats(g)
	if st.Candidates != 0 || st.Instances != 0 || st.Aborts != 0 ||
		st.Trace.Recorded != 0 || st.Trace.Replayed != 0 || st.Trace.Invalidations != 0 {
		t.Errorf("AutoTraceStats without AutoTrace = %+v", st)
	}
}

// writeReduceLoop declares a 1,024-point region in 8 pieces and returns it
// with a launcher for a 16-launch loop over it: launch i writes piece
// i/2 mod 8 when i is even and reduces into it when i is odd.
func writeReduceLoop(rt *visibility.Runtime) (*visibility.Region, func(i int)) {
	g := rt.CreateRegion("g", visibility.Line(0, 1023), "v")
	pieces := g.PartitionEqual("P", 8)
	return g, func(i int) {
		piece := pieces.Sub(i / 2 % 8)
		if i%2 == 0 {
			rt.Launch(visibility.TaskSpec{
				Name:     "write",
				Accesses: []visibility.Access{visibility.Write(piece, "v")},
				Kernel:   visibility.Kernel{Write: func(_ int, _ visibility.Point, in float64) float64 { return in + 1 }},
			})
			return
		}
		rt.Launch(visibility.TaskSpec{
			Name:     "reduce",
			Accesses: []visibility.Access{visibility.Reduce(visibility.OpSum, piece, "v")},
			Kernel:   visibility.Kernel{Reduce: func(int, visibility.Point) float64 { return 2 }},
		})
	}
}

// TestAutoTraceOwesAtMostOneWindow runs a loop that never exits, so no
// launch outside an instance ever drains the replayed ones. The
// autotracer must still owe the wrapped analyzer at most one detector
// window (8,192 launches), and the values must equal an untraced run.
func TestAutoTraceOwesAtMostOneWindow(t *testing.T) {
	const launches, bound = 20000, 8192
	values := func(rt *visibility.Runtime, g *visibility.Region) []float64 {
		snap := rt.Read(g, "v")
		out := make([]float64, 1024)
		for x := range out {
			out[x], _ = snap.Get(visibility.Pt(int64(x)))
		}
		return out
	}
	plain := visibility.New(visibility.Config{})
	defer plain.Close()
	g, launch := writeReduceLoop(plain)
	for i := 0; i < launches; i++ {
		launch(i)
	}
	want := values(plain, g)

	reg := obs.NewRegistry()
	rt := visibility.New(visibility.Config{AutoTrace: true, Validate: true, Metrics: reg})
	defer rt.Close()
	g, launch = writeReduceLoop(rt)
	pending, most := reg.NewGauge("trace/pending"), int64(0)
	for i := 0; i < launches; i++ {
		launch(i)
		most = max(most, pending.Load())
	}
	if most > bound {
		t.Errorf("trace/pending reached %d, want at most %d", most, bound)
	}
	if st := rt.AutoTraceStats(g); st.Trace.Replayed < bound {
		t.Errorf("replayed %d launches, want at least %d for the bound to bite", st.Trace.Replayed, bound)
	}
	got := values(rt, g)
	for x := range want {
		if got[x] != want[x] {
			t.Fatalf("point %d = %v under autotracing, want %v", x, got[x], want[x])
		}
	}
}
