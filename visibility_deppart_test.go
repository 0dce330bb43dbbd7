package visibility_test

import (
	"sync"
	"testing"
	"time"

	"visibility"
	"visibility/internal/fault"
	"visibility/internal/obs/recorder"
)

func TestPartitionImageAndMinus(t *testing.T) {
	rt := visibility.New(visibility.Config{Validate: true})
	defer rt.Close()
	n := int64(12)
	g := rt.CreateRegion("g", visibility.Line(0, n-1), "v")
	primary := g.PartitionEqual("P", 3)

	neighbors := func(p visibility.Point) []visibility.Point {
		return []visibility.Point{
			visibility.Pt((p.C[0] - 1 + n) % n),
			visibility.Pt((p.C[0] + 1) % n),
		}
	}
	reach := g.PartitionImage("reach", primary, neighbors)
	ghost := reach.Minus("G", primary)

	// Ghost of piece 0 (cells 0-3): neighbors 11 and 4.
	want := visibility.Union(visibility.Points(11), visibility.Points(4))
	if !ghost.Sub(0).Space().Equal(want) {
		t.Errorf("ghost[0] = %v, want %v", ghost.Sub(0).Space(), want)
	}
	if ghost.Sub(0).Space().Overlaps(primary.Sub(0).Space()) {
		t.Error("ghost must not include the piece itself")
	}

	// The derived partition participates in coherence like any other.
	for i := 0; i < 3; i++ {
		rt.Launch(visibility.TaskSpec{
			Name:     "w",
			Accesses: []visibility.Access{visibility.Write(primary.Sub(i), "v")},
			Kernel: visibility.Kernel{Write: func(_ int, p visibility.Point, _ float64) float64 {
				return float64(p.C[0])
			}},
		})
	}
	rt.Launch(visibility.TaskSpec{
		Name:     "halo-sum",
		Accesses: []visibility.Access{visibility.Reduce(visibility.OpSum, ghost.Sub(0), "v")},
		Kernel:   visibility.Kernel{Reduce: func(_ int, _ visibility.Point) float64 { return 100 }},
	})
	snap := rt.Read(g, "v")
	if v, _ := snap.Get(visibility.Pt(4)); v != 104 {
		t.Errorf("cell 4 = %v, want 104", v)
	}
	if v, _ := snap.Get(visibility.Pt(5)); v != 5 {
		t.Errorf("cell 5 = %v, want 5", v)
	}
}

func TestPartitionPreimage(t *testing.T) {
	rt := visibility.New(visibility.Config{})
	defer rt.Close()
	// Cells 0-9 map to owners 0-1 by halves; preimage of the owner
	// partition groups cells by where they map.
	g := rt.CreateRegion("g", visibility.Line(0, 9), "v")
	owners := g.Partition("O", []visibility.IndexSpace{
		visibility.Line(0, 4), visibility.Line(5, 9),
	})
	pre := g.PartitionPreimage("pre", owners, func(p visibility.Point) []visibility.Point {
		return []visibility.Point{visibility.Pt((p.C[0] * 7) % 10)}
	})
	for i := 0; i < pre.Len(); i++ {
		pre.Sub(i).Space().Each(func(p visibility.Point) bool {
			target := (p.C[0] * 7) % 10
			if !owners.Sub(i).Space().Contains(visibility.Pt(target)) {
				t.Errorf("cell %d in preimage %d but maps to %d", p.C[0], i, target)
			}
			return true
		})
	}
}

func TestPartitionByColor(t *testing.T) {
	rt := visibility.New(visibility.Config{})
	defer rt.Close()
	g := rt.CreateRegion("g", visibility.Line(0, 9), "v")
	par := g.PartitionByColor("par", 2, func(p visibility.Point) int {
		return int(p.C[0] % 2)
	})
	if !par.Disjoint() || !par.Complete() {
		t.Error("parity coloring should be disjoint and complete")
	}
	if par.Sub(1).Space().Volume() != 5 || !par.Sub(1).Space().Contains(visibility.Pt(7)) {
		t.Errorf("odd piece = %v", par.Sub(1).Space())
	}
}

func TestMinusLengthMismatchPanics(t *testing.T) {
	rt := visibility.New(visibility.Config{})
	g := rt.CreateRegion("g", visibility.Line(0, 9), "v")
	a := g.PartitionEqual("a", 2)
	b := g.PartitionEqual("b", 5)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	a.Minus("bad", b)
}

// TestPublicTracing pins the ignored declarations: Config.Tracing,
// Config.Shards and the BeginTrace/EndTrace brackets change no value and
// replay nothing, whatever instrumentation they are combined with.
func TestPublicTracing(t *testing.T) {
	run := func(cfg visibility.Config, bracket bool) []float64 {
		rt := visibility.New(cfg)
		defer rt.Close()
		g := rt.CreateRegion("g", visibility.Line(0, 15), "v")
		blocks := g.PartitionEqual("B", 4)
		for it := 0; it < 6; it++ {
			if bracket {
				rt.BeginTrace(g, 1)
			}
			for i := 0; i < 4; i++ {
				rt.Launch(visibility.TaskSpec{
					Name:     "step",
					Accesses: []visibility.Access{visibility.Write(blocks.Sub(i), "v")},
					Kernel: visibility.Kernel{Write: func(_ int, p visibility.Point, in float64) float64 {
						return in + float64(p.C[0])
					}},
				})
			}
			if bracket {
				rt.EndTrace(g)
			}
		}
		snap := rt.Read(g, "v")
		out := make([]float64, 16)
		for x := range out {
			out[x], _ = snap.Get(visibility.Pt(int64(x)))
		}
		if st := rt.AutoTraceStats(g); st.Trace.Recorded != 0 || st.Trace.Replayed != 0 {
			t.Errorf("%+v: trace counters %+v, want none", cfg, st.Trace)
		}
		return out
	}
	want := run(visibility.Config{Validate: true}, false)
	got := run(visibility.Config{
		Tracing: true, Shards: 2, Recorder: recorder.New(64), Faults: fault.New(fault.Plan{}), Validate: true,
	}, true)
	for x := range want {
		if got[x] != want[x] {
			t.Fatalf("point %d = %v with the ignored declarations, want %v", x, got[x], want[x])
		}
	}
	if want[3] != 18 {
		t.Errorf("point 3 = %v, want 18", want[3])
	}
}

func TestAfterFutures(t *testing.T) {
	// Validate mode would run each Body twice (sequential + parallel);
	// keep the observed order simple.
	rt := visibility.New(visibility.Config{})
	defer rt.Close()
	g := rt.CreateRegion("g", visibility.Line(0, 7), "v")
	halves := g.PartitionEqual("H", 2)

	var order []string
	var mu sync.Mutex
	note := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	// Two region-independent tasks, explicitly ordered by a future; the
	// producer is held inside its body.
	started, release := make(chan struct{}), make(chan struct{})
	producer := rt.Launch(visibility.TaskSpec{
		Name:     "producer",
		Accesses: []visibility.Access{visibility.Write(halves.Sub(0), "v")},
		Kernel: visibility.Kernel{Body: func([]*visibility.Snapshot) {
			close(started)
			<-release
			note("producer")
		}},
	})
	consumer := rt.Launch(visibility.TaskSpec{
		Name:     "consumer",
		Accesses: []visibility.Access{visibility.Write(halves.Sub(1), "v")},
		Kernel:   visibility.Kernel{Body: func([]*visibility.Snapshot) { note("consumer") }},
		After:    []visibility.Future{producer},
	})
	<-started
	for i := 0; i < 20; i++ { // idle workers get every chance to run the consumer early
		if producer.Done() || consumer.Done() {
			t.Fatalf("before release: producer done = %v, consumer done = %v", producer.Done(), consumer.Done())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	rt.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "producer" || order[1] != "consumer" || !producer.Done() || !consumer.Done() {
		t.Fatalf("order = %v (done: %v, %v), want [producer consumer]", order, producer.Done(), consumer.Done())
	}
}
