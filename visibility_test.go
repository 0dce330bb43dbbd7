package visibility_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"visibility"
)

func TestQuickstartFlow(t *testing.T) {
	for _, alg := range []string{"raycast", "warnock", "paint"} {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			rt := visibility.New(visibility.Config{Algorithm: alg, Validate: true})
			defer rt.Close()
			cells := rt.CreateRegion("cells", visibility.Line(0, 63), "v")
			blocks := cells.PartitionEqual("B", 4)
			if !blocks.Disjoint() || !blocks.Complete() {
				t.Fatal("PartitionEqual must be disjoint and complete")
			}
			for i := 0; i < 4; i++ {
				rt.Launch(visibility.TaskSpec{
					Name:     "init",
					Accesses: []visibility.Access{visibility.Write(blocks.Sub(i), "v")},
					Kernel: visibility.Kernel{
						Write: func(_ int, p visibility.Point, _ float64) float64 { return float64(p.C[0]) },
					},
				})
			}
			rt.Launch(visibility.TaskSpec{
				Name:     "double",
				Accesses: []visibility.Access{visibility.Write(cells, "v")},
				Kernel: visibility.Kernel{
					Write: func(_ int, _ visibility.Point, in float64) float64 { return 2 * in },
				},
			})
			snap := rt.Read(cells, "v")
			for x := int64(0); x < 64; x++ {
				if v, ok := snap.Get(visibility.Pt(x)); !ok || v != float64(2*x) {
					t.Fatalf("cells[%d] = %v, %v", x, v, ok)
				}
			}
			if rt.Stats(cells).Launches == 0 {
				t.Error("no stats recorded")
			}
		})
	}
}

func TestReductionsAndAliasedPartitions(t *testing.T) {
	rt := visibility.New(visibility.Config{Validate: true})
	defer rt.Close()
	r := rt.CreateRegion("r", visibility.Line(0, 9), "v")
	r.Fill("v", 1)
	overlapping := r.Partition("O", []visibility.IndexSpace{
		visibility.Line(0, 6),
		visibility.Line(4, 9),
	})
	if overlapping.Disjoint() {
		t.Fatal("fixture should be aliased")
	}
	for i := 0; i < 2; i++ {
		rt.Launch(visibility.TaskSpec{
			Name:     "add",
			Accesses: []visibility.Access{visibility.Reduce(visibility.OpSum, overlapping.Sub(i), "v")},
			Kernel:   visibility.Kernel{Reduce: func(_ int, _ visibility.Point) float64 { return 10 }},
		})
	}
	snap := rt.Read(r, "v")
	if v, _ := snap.Get(visibility.Pt(5)); v != 21 { // 1 + 10 + 10 (both pieces)
		t.Errorf("overlap point = %v, want 21", v)
	}
	if v, _ := snap.Get(visibility.Pt(0)); v != 11 {
		t.Errorf("exclusive point = %v, want 11", v)
	}
}

func TestMinMaxReductions(t *testing.T) {
	rt := visibility.New(visibility.Config{Validate: true})
	defer rt.Close()
	r := rt.CreateRegion("r", visibility.Line(0, 0), "lo", "hi")
	r.Fill("lo", 100)
	r.Fill("hi", -100)
	for i := 0; i < 5; i++ {
		v := float64(i * 7 % 5)
		rt.Launch(visibility.TaskSpec{
			Name: "bound",
			Accesses: []visibility.Access{
				visibility.Reduce(visibility.OpMin, r, "lo"),
				visibility.Reduce(visibility.OpMax, r, "hi"),
			},
			Kernel: visibility.Kernel{Reduce: func(ai int, _ visibility.Point) float64 { return v }},
		})
	}
	if v, _ := rt.Read(r, "lo").Get(visibility.Pt(0)); v != 0 {
		t.Errorf("min = %v", v)
	}
	if v, _ := rt.Read(r, "hi").Get(visibility.Pt(0)); v != 4 {
		t.Errorf("max = %v", v)
	}
}

func TestBodyReceivesReads(t *testing.T) {
	rt := visibility.New(visibility.Config{})
	defer rt.Close()
	r := rt.CreateRegion("r", visibility.Line(0, 3), "v")
	r.Init("v", func(p visibility.Point) float64 { return float64(p.C[0] * p.C[0]) })

	var mu sync.Mutex
	var sum float64
	f := rt.Launch(visibility.TaskSpec{
		Name:     "observe",
		Accesses: []visibility.Access{visibility.Read(r, "v")},
		Kernel: visibility.Kernel{Body: func(in []*visibility.Snapshot) {
			mu.Lock()
			defer mu.Unlock()
			in[0].Each(func(_ visibility.Point, v float64) { sum += v })
		}},
	})
	f.Wait()
	if !f.Done() {
		t.Error("future should be done after Wait")
	}
	mu.Lock()
	defer mu.Unlock()
	if sum != 0+1+4+9 {
		t.Errorf("sum = %v", sum)
	}
}

// TestBodyKeepsWriteInputs: a body that keeps its snapshot of a write
// access still reads the materialized input after the task has run — the
// kernel's output goes to a store of its own, which a later read sees.
func TestBodyKeepsWriteInputs(t *testing.T) {
	rt := visibility.New(visibility.Config{})
	defer rt.Close()
	r := rt.CreateRegion("r", visibility.Line(0, 3), "v")
	r.Init("v", func(p visibility.Point) float64 { return float64(p.C[0]) })

	var kept *visibility.Snapshot
	rt.Launch(visibility.TaskSpec{
		Name:     "bump",
		Accesses: []visibility.Access{visibility.Write(r, "v")},
		Kernel: visibility.Kernel{
			Write: func(_ int, _ visibility.Point, in float64) float64 { return in + 10 },
			Body:  func(in []*visibility.Snapshot) { kept = in[0] },
		},
	}).Wait()
	out := rt.Read(r, "v")
	for x := int64(0); x < 4; x++ {
		if v, ok := kept.Get(visibility.Pt(x)); !ok || v != float64(x) {
			t.Errorf("kept input at %d = %v, %v; want %d", x, v, ok, x)
		}
		if v, ok := out.Get(visibility.Pt(x)); !ok || v != float64(x+10) {
			t.Errorf("read after the task at %d = %v, %v; want %d", x, v, ok, x+10)
		}
	}
}

func Test2DRegions(t *testing.T) {
	rt := visibility.New(visibility.Config{Validate: true})
	defer rt.Close()
	g := rt.CreateRegion("g", visibility.Grid(8, 8), "v")
	quads := g.Partition("Q", []visibility.IndexSpace{
		visibility.Box(0, 0, 3, 3), visibility.Box(4, 0, 7, 3),
		visibility.Box(0, 4, 3, 7), visibility.Box(4, 4, 7, 7),
	})
	for i := 0; i < 4; i++ {
		i := i
		rt.Launch(visibility.TaskSpec{
			Name:     "mark",
			Accesses: []visibility.Access{visibility.Write(quads.Sub(i), "v")},
			Kernel: visibility.Kernel{
				Write: func(_ int, _ visibility.Point, _ float64) float64 { return float64(i + 1) },
			},
		})
	}
	snap := rt.Read(g, "v")
	if v, _ := snap.Get(visibility.Pt2(5, 5)); v != 4 {
		t.Errorf("quadrant 3 = %v", v)
	}
	if v, _ := snap.Get(visibility.Pt2(1, 6)); v != 3 {
		t.Errorf("quadrant 2 = %v", v)
	}
	if snap.Len() != 64 {
		t.Errorf("snapshot len = %d", snap.Len())
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"unknown algorithm", func() { visibility.New(visibility.Config{Algorithm: "zbuffer"}) }},
		{"no fields", func() {
			rt := visibility.New(visibility.Config{})
			rt.CreateRegion("r", visibility.Line(0, 9))
		}},
		{"unknown field", func() {
			rt := visibility.New(visibility.Config{})
			r := rt.CreateRegion("r", visibility.Line(0, 9), "v")
			r.Fill("w", 0)
		}},
		{"init after launch", func() {
			rt := visibility.New(visibility.Config{})
			defer rt.Close()
			r := rt.CreateRegion("r", visibility.Line(0, 9), "v")
			rt.Launch(visibility.TaskSpec{
				Name:     "w",
				Accesses: []visibility.Access{visibility.Write(r, "v")},
			})
			r.Fill("v", 1)
		}},
		{"empty task", func() {
			rt := visibility.New(visibility.Config{})
			rt.Launch(visibility.TaskSpec{Name: "none"})
		}},
		{"duplicate root name", func() {
			rt := visibility.New(visibility.Config{})
			rt.CreateRegion("r", visibility.Line(0, 9), "v")
			rt.CreateRegion("r", visibility.Line(0, 3), "w")
		}},
		{"too many pieces", func() {
			rt := visibility.New(visibility.Config{})
			r := rt.CreateRegion("r", visibility.Line(0, 3), "v")
			r.PartitionEqual("P", 10)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			c.f()
		})
	}
}

func TestHelpers(t *testing.T) {
	u := visibility.Union(visibility.Line(0, 3), visibility.Line(10, 12))
	if u.Volume() != 7 {
		t.Errorf("Union volume = %d", u.Volume())
	}
	if visibility.Union().Volume() != 0 {
		t.Error("empty Union should be empty")
	}
	ps := visibility.Points(5, 1, 3)
	if ps.Volume() != 3 || !ps.Contains(visibility.Pt(3)) {
		t.Errorf("Points = %v", ps)
	}
	if visibility.Grid(4, 4).Volume() != 16 {
		t.Error("Grid volume wrong")
	}
	if visibility.Box(1, 1, 2, 2).Volume() != 4 {
		t.Error("Box volume wrong")
	}
}

// TestManyTasksStress launches a few hundred tasks across algorithms with
// validation on, as an end-to-end soak of the whole public stack.
func TestManyTasksStress(t *testing.T) {
	rt := visibility.New(visibility.Config{Algorithm: "warnock", Validate: true})
	defer rt.Close()
	r := rt.CreateRegion("r", visibility.Line(0, 99), "a", "b")
	blocks := r.PartitionEqual("B", 10)
	windows := r.Partition("W", []visibility.IndexSpace{
		visibility.Line(5, 24), visibility.Line(20, 59), visibility.Line(50, 99),
	})
	for iter := 0; iter < 10; iter++ {
		for i := 0; i < 10; i++ {
			rt.Launch(visibility.TaskSpec{
				Name:     fmt.Sprintf("w%d", i),
				Accesses: []visibility.Access{visibility.Write(blocks.Sub(i), "a")},
				Kernel: visibility.Kernel{Write: func(_ int, p visibility.Point, in float64) float64 {
					return in + float64(p.C[0])
				}},
			})
		}
		for i := 0; i < 3; i++ {
			rt.Launch(visibility.TaskSpec{
				Name: fmt.Sprintf("r%d", i),
				Accesses: []visibility.Access{
					visibility.Read(windows.Sub(i), "a"),
					visibility.Reduce(visibility.OpSum, windows.Sub(i), "b"),
				},
				Kernel: visibility.Kernel{Reduce: func(_ int, _ visibility.Point) float64 { return 1 }},
			})
		}
	}
	rt.Wait()
	snap := rt.Read(r, "b")
	if v, _ := snap.Get(visibility.Pt(22)); v != 20 { // in windows 0 and 1, 10 iters
		t.Errorf("b[22] = %v, want 20", v)
	}
}

// TestWaitedRuntimesHoldNoGoroutines launches work on several runtimes
// and waits for it without closing them: a runtime with nothing in flight
// holds no goroutine, so neither does an idle session.
func TestWaitedRuntimesHoldNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	var rts []*visibility.Runtime
	for _, alg := range []string{"raycast", "warnock", "paint", "raycast"} {
		rt := visibility.New(visibility.Config{Algorithm: alg})
		r := rt.CreateRegion("r", visibility.Line(0, 63), "v")
		blocks := r.PartitionEqual("B", 4)
		for i := 0; i < 8; i++ {
			rt.Launch(visibility.TaskSpec{Name: "w", Accesses: []visibility.Access{visibility.Write(blocks.Sub(i%4), "v")}})
		}
		rt.Wait()
		rts = append(rts, rt)
	}
	// A runner that has returned may still be counted for a moment.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d runtimes that waited hold %d goroutines", len(rts), got-before)
	}
}

// TestValidateKeepsNoInputs checks a Validate runtime over many launches:
// the sequential interpreter hands each launch its expected inputs and
// keeps no table of them, so nothing grows with the launches.
func TestValidateKeepsNoInputs(t *testing.T) {
	rt := visibility.New(visibility.Config{Validate: true})
	defer rt.Close()
	r := rt.CreateRegion("r", visibility.Line(0, 31), "v")
	blocks := r.PartitionEqual("B", 4)
	for i := 0; i < 1000; i++ {
		rt.Launch(visibility.TaskSpec{
			Name:     "step",
			Accesses: []visibility.Access{visibility.Write(blocks.Sub(i%4), "v")},
			Kernel: visibility.Kernel{Write: func(_ int, _ visibility.Point, in float64) float64 {
				return in + 1
			}},
		})
	}
	if v, _ := rt.Read(r, "v").Get(visibility.Pt(0)); v != 250 {
		t.Errorf("v[0] = %v, want 250", v)
	}
}

// TestFrozenTreeDropsInitialContents checks that a tree keeps no copy of
// its initial contents once it has launched: the executor and the Validate
// interpreter each hold their own.
func TestFrozenTreeDropsInitialContents(t *testing.T) {
	rt := visibility.New(visibility.Config{Validate: true})
	defer rt.Close()
	r := rt.CreateRegion("r", visibility.Line(0, 7), "v").Fill("v", 3)
	if !visibility.HoldsInitialContents(r) {
		t.Fatal("a tree that has not launched lost its initial contents")
	}
	if v, _ := rt.Read(r, "v").Get(visibility.Pt(5)); v != 3 {
		t.Errorf("v[5] = %v, want the initial 3", v)
	}
	if visibility.HoldsInitialContents(r) {
		t.Error("a launched tree still holds its initial contents")
	}
}

func TestRuntimeRegionLookup(t *testing.T) {
	rt := visibility.New(visibility.Config{})
	defer rt.Close()
	r := rt.CreateRegion("alpha", visibility.Line(0, 3), "v")
	if rt.Region("alpha") != r {
		t.Error("Region lookup by name failed")
	}
	if rt.Region("beta") != nil {
		t.Error("missing region should be nil")
	}
}

func TestSnapshotNil(t *testing.T) {
	var s *visibility.Snapshot
	if _, ok := s.Get(visibility.Pt(0)); ok {
		t.Error("nil snapshot Get should report not-ok")
	}
}
