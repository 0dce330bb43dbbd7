package visibility_test

import (
	"testing"

	"visibility"
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
	// Iterations 0-1 detect, 2 records, 3-7 replay.
	if st.Trace.Recorded != 4 || st.Trace.Replayed != 5*4 {
		t.Errorf("recorded/replayed = %d/%d, want 4/20", st.Trace.Recorded, st.Trace.Replayed)
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
