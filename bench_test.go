// Benchmarks regenerating the paper's evaluation (§8). There is one
// benchmark per figure; each sub-benchmark is one (configuration, node
// count) cell and reports the figure's metric:
//
//   - Figures 12-14 (initialization time): init_s
//   - Figures 15-17 (weak scaling): units/s/node (points, wires, zones)
//
// The simulated node counts default to 1..32 so the full `go test
// -bench=. ./...` suite fits comfortably inside Go's default test timeout;
// set VIS_BENCH_MAX_NODES=512 to regenerate the paper's full range
// (cmd/visbench sweeps the full range by default and prints the assembled
// figures).
//
// Additional benchmarks measure the real (wall-clock) cost of the
// analyzers themselves and ablate the optimizations called out in §5.1 and
// §6.1.
package visibility_test

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"testing"

	"visibility"
	"visibility/internal/algo"
	"visibility/internal/apps"
	"visibility/internal/apps/circuit"
	"visibility/internal/apps/pennant"
	"visibility/internal/apps/stencil"
	"visibility/internal/cluster"
	"visibility/internal/core"
	"visibility/internal/data"
	"visibility/internal/dist"
	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/harness"
	"visibility/internal/index"
	"visibility/internal/obs"
	"visibility/internal/obs/recorder"
	"visibility/internal/paint"
	"visibility/internal/privilege"
	"visibility/internal/region"
	"visibility/internal/testutil"
	"visibility/internal/warnock"
)

func benchNodeCounts() []int {
	max := 32
	if s := os.Getenv("VIS_BENCH_MAX_NODES"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			max = v
		}
	}
	return harness.NodeSweep(max)
}

func benchFigure(b *testing.B, app apps.Builder, appName, metric string) {
	for _, cfg := range harness.PaperConfigs() {
		for _, nodes := range benchNodeCounts() {
			name := fmt.Sprintf("%s/nodes=%d", harness.SystemName(cfg.Algorithm, cfg.DCR), nodes)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r, err := harness.Run(harness.Config{
						App: app, AppName: appName,
						Algorithm: cfg.Algorithm, DCR: cfg.DCR,
						Nodes: nodes, MeasureIters: 2,
					})
					if err != nil {
						b.Fatal(err)
					}
					if metric == "init" {
						b.ReportMetric(r.InitTime, "init_s")
					} else {
						b.ReportMetric(r.ThroughputPerNode, r.UnitName+"/s/node")
					}
				}
			})
		}
	}
}

// Figures 12-14: initialization time.

func BenchmarkFig12StencilInit(b *testing.B) { benchFigure(b, stencil.New, "stencil", "init") }
func BenchmarkFig13CircuitInit(b *testing.B) { benchFigure(b, circuit.New, "circuit", "init") }
func BenchmarkFig14PennantInit(b *testing.B) { benchFigure(b, pennant.New, "pennant", "init") }

// Figures 15-17: weak-scaling throughput per node.

func BenchmarkFig15StencilWeak(b *testing.B) { benchFigure(b, stencil.New, "stencil", "weak") }
func BenchmarkFig16CircuitWeak(b *testing.B) { benchFigure(b, circuit.New, "circuit", "weak") }
func BenchmarkFig17PennantWeak(b *testing.B) { benchFigure(b, pennant.New, "pennant", "weak") }

// BenchmarkAnalyzePerLaunch measures the real Go-side cost of one launch's
// analysis for each algorithm on the circuit workload at 16 nodes — the
// constant factors behind the simulated op counts. It runs with
// core.Options{}, whose default owner is the constant 0, so it excludes
// cost-model attribution (resolving who owns the state a launch touches);
// BenchmarkHarnessLaunch is the same launch with that included. The _auto
// legs wrap the algorithm in the autotracer and warm up until its loop
// replays, so they time a replayed launch and, once b.N passes about 8,000,
// the catch-up the autotracer drains every 8,192 replays; one fails if
// fewer than 90% of its timed launches replay.
func BenchmarkAnalyzePerLaunch(b *testing.B) {
	for _, name := range algo.Names() {
		for _, spec := range []algo.Spec{{Algorithm: name}, {Algorithm: name, AutoTrace: true}} {
			b.Run(name+spec.Suffix(), func(b *testing.B) {
				inst := circuit.New(16)
				st := spec.Build(inst.Tree, core.Options{})
				stream := core.NewStream(inst.Tree)
				b.ReportAllocs()
				// Warm up: the initialization iteration and, autotraced, two
				// more to detect the loop, two to record it and two replayed.
				warm := 1
				if st.Auto != nil {
					warm = 7
				}
				var launches []apps.Launch
				for it := 0; it < warm; it++ {
					launches = inst.Emit(stream, it)
					for _, l := range launches {
						st.Analyzer.Analyze(l.Task)
					}
				}
				var replayed int64
				if st.Auto != nil {
					replayed = st.Auto.AutoStats().Trace.Replayed
				}
				// Start from a collected heap, not the previous leg's.
				runtime.GC()
				b.ResetTimer()
				n := 0
				for i := 0; i < b.N; i++ {
					if n == 0 {
						b.StopTimer()
						launches = inst.Emit(stream, warm+i)
						n = len(launches)
						b.StartTimer()
					}
					n--
					st.Analyzer.Analyze(launches[len(launches)-1-n].Task)
				}
				b.StopTimer()
				if st.Auto != nil {
					if got := st.Auto.AutoStats().Trace.Replayed - replayed; got*10 < int64(b.N)*9 {
						b.Fatalf("%d of %d timed launches replayed, want at least 90%%", got, b.N)
					}
				}
			})
		}
	}
}

// BenchmarkHarnessLaunch measures a launch on the path harness.Run and
// visperf take: dist.Driver.Launch over dist.OwnerByPartition at 16 nodes,
// DCR as in §8. One benchmark iteration is one visperf leg — a fresh
// system, its init phase untimed, then the leg's steady steps (Emit
// included) — so -benchtime 5x is five legs. Beside what a launch
// allocates, live-B/launch reports what it leaves live: the heap after a
// collection at the end of the steady window less the heap after one at
// its start, per launch.
func BenchmarkHarnessLaunch(b *testing.B) {
	const nodes = 16
	for _, app := range []struct {
		name  string
		build apps.Builder
		steps map[string]int
	}{
		{"circuit", circuit.New, map[string]int{"raycast": 8, "warnock": 30, "paint": 24}},
		{"stencil", stencil.New, map[string]int{"raycast": 250, "warnock": 250, "paint": 250}},
	} {
		for _, alg := range []string{"raycast", "warnock", "paint"} {
			b.Run(app.name+"/"+alg, func(b *testing.B) {
				newAn, err := algo.Lookup(alg)
				if err != nil {
					b.Fatal(err)
				}
				var launches, allocs, bytes, live int64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					inst := app.build(nodes)
					driver := dist.New(cluster.New(cluster.DefaultConfig(nodes)), inst.Tree, dist.NewAnalyzerFunc(newAn),
						dist.OwnerByPartition(inst.Owned, nodes), dist.DefaultConfig(alg != "paint"))
					stream := core.NewStream(inst.Tree)
					run := func(ls []apps.Launch) {
						for _, l := range ls {
							driver.Launch(l.Task, dist.OwnerMapper{}.Place(l.Task, l.Node, nodes), l.Duration)
						}
					}
					if inst.EmitInit != nil {
						run(inst.EmitInit(stream))
					}
					run(inst.Emit(stream, 0))
					heap := liveHeap()
					before := obs.ReadAllocs()
					b.StartTimer()
					// The label lets a -cpuprofile keep the timed window
					// alone (pprof -tagfocus window=steady), without the
					// untimed build and initialization above.
					pprof.Do(context.Background(), pprof.Labels("window", "steady"), func(context.Context) {
						for k := 0; k < app.steps[alg]; k++ {
							ls := inst.Emit(stream, 1+k)
							run(ls)
							launches += int64(len(ls))
						}
					})
					b.StopTimer()
					n, by := obs.ReadAllocs().Since(before)
					allocs += n
					bytes += by
					live += liveHeap() - heap
					runtime.KeepAlive(driver)
					runtime.KeepAlive(stream)
					runtime.KeepAlive(inst)
				}
				b.ReportMetric(float64(launches)/b.Elapsed().Seconds(), "launches/s")
				b.ReportMetric(float64(allocs)/float64(launches), "allocs/launch")
				b.ReportMetric(float64(bytes)/float64(launches), "B/launch")
				b.ReportMetric(float64(live)/float64(launches), "live-B/launch")
			})
		}
	}
}

// liveHeap collects garbage and returns the bytes of heap objects left.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// BenchmarkSessionGrowth measures what a Runtime keeps per launch
// (ROADMAP item 8): the heap after a collection at 10⁴ and at 10⁵ launches
// of writeReduceLoop, reported as B/launch between the two, for each
// analyzer and for ray casting autotraced. One iteration is one session of
// 10⁵ launches, so run it at -benchtime 1x.
func BenchmarkSessionGrowth(b *testing.B) {
	for _, leg := range []struct {
		name string
		cfg  visibility.Config
	}{
		{"raycast", visibility.Config{Algorithm: "raycast"}},
		{"warnock", visibility.Config{Algorithm: "warnock"}},
		{"paint", visibility.Config{Algorithm: "paint"}},
		{"raycast+autotrace", visibility.Config{Algorithm: "raycast", AutoTrace: true}},
	} {
		b.Run(leg.name, func(b *testing.B) {
			const from, to = 10_000, 100_000
			var grown int64
			for i := 0; i < b.N; i++ {
				rt := visibility.New(leg.cfg)
				_, launch := writeReduceLoop(rt)
				var heap int64
				for n := 0; n < to; n++ {
					if n == from {
						rt.Wait()
						heap = liveHeap()
					}
					launch(n)
				}
				rt.Wait()
				grown += liveHeap() - heap
				rt.Close()
			}
			b.ReportMetric(float64(grown)/float64(b.N)/(to-from), "B/launch")
		})
	}
}

// BenchmarkObsOverhead is the observability-layer overhead guard: it
// measures steady-state analysis throughput of the raycast stack, built
// as every session builds it (algo.Spec.Build), with instrumentation
// absent (nil Spans and Recorder in core.Options — the zero value every
// non-instrumented caller gets, and the only off state), with span
// recording on (the stack's one span per analyzed launch), and as every
// visserve session runs it, with spans and the flight recorder both on
// (an analysis journals nothing to the recorder). CI holds session
// within 25% of absent.
func BenchmarkObsOverhead(b *testing.B) {
	spans := obs.NewBuffer(1 << 12)
	rec := recorder.New(1 << 14)
	cases := []struct {
		name string
		opts core.Options
	}{
		{"absent", core.Options{}},
		{"enabled", core.Options{Spans: spans}},
		{"session", core.Options{Spans: spans, Recorder: rec}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			inst := circuit.New(16)
			an := algo.Spec{Algorithm: "raycast"}.Build(inst.Tree, tc.opts).Analyzer
			stream := core.NewStream(inst.Tree)
			for _, l := range inst.Emit(stream, 0) {
				an.Analyze(l.Task)
			}
			iter := 1
			launches := inst.Emit(stream, iter)
			li := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if li == len(launches) {
					b.StopTimer()
					iter++
					launches = inst.Emit(stream, iter)
					li = 0
					b.StartTimer()
				}
				an.Analyze(launches[li].Task)
				li++
			}
		})
	}
}

// BenchmarkAblationWarnockMemo quantifies §6.1's memoization: steady-state
// analysis cost with and without restarting lookups at memoized nodes.
func BenchmarkAblationWarnockMemo(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "memo=on"
		if disable {
			name = "memo=off"
		}
		b.Run(name, func(b *testing.B) {
			tree, p, g := testutil.GraphTree()
			w := warnock.New(tree, core.Options{})
			w.DisableMemo = disable
			s := core.NewStream(tree)
			for i := 0; i < 3; i++ { // warm up: build the refinement
				testutil.LaunchT1(s, p, g, i)
				testutil.LaunchT2(s, p, g, i)
			}
			for _, t := range s.Tasks {
				w.Analyze(t)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Analyze(testutil.LaunchT1(s, p, g, i%3))
			}
			b.ReportMetric(float64(w.Stats().BVHVisited)/float64(b.N), "bvh-visits/launch")
		})
	}
}

// BenchmarkAblationPainterPruning quantifies §5.1's occlusion pruning: the
// painter's per-launch scan cost with and without deleting occluded
// history items. Without pruning the history grows with the stream, so the
// gap widens as b.N grows.
func BenchmarkAblationPainterPruning(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "pruning=on"
		if disable {
			name = "pruning=off"
		}
		b.Run(name, func(b *testing.B) {
			tree, p, g := testutil.GraphTree()
			pa := paint.NewPainter(tree, core.Options{})
			pa.DisablePruning = disable
			s := core.NewStream(tree)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pa.Analyze(testutil.LaunchT1(s, p, g, i%3))
				pa.Analyze(testutil.LaunchT2(s, p, g, i%3))
			}
			b.ReportMetric(float64(pa.Stats().EntriesScanned)/float64(b.N), "entries/launch")
		})
	}
}

// BenchmarkMaterialize measures core.Materialize, the data half of every
// executed launch: "launch" is the serve_batch shape, a 64-point piece
// rebuilt from one write entry over all of it and one 8-point reduce
// entry; "lshape" copies a stepped 2-D L of three rectangles out of a square.
func BenchmarkMaterialize(b *testing.B) {
	fs := field.NewSpace()
	fs.Add("v")
	filled := func(sp index.Space) *data.Store {
		st := data.NewStore(sp)
		st.Fill(func(p geometry.Point) float64 { return float64(p.C[0] + p.C[1]) })
		return st
	}
	piece, ghost := index.FromRect(geometry.R1(0, 63)), index.FromRect(geometry.R1(0, 7))
	l := index.FromRects(2, geometry.R2(0, 0, 31, 7), geometry.R2(0, 8, 15, 15), geometry.R2(0, 16, 7, 31))
	for _, c := range []struct {
		name  string
		space index.Space
		plan  []core.Visible
		srcs  []*data.Store
	}{
		{"launch", piece, []core.Visible{
			{Task: 0, Priv: privilege.Writes(), Pts: piece},
			{Task: 1, Priv: privilege.Reduces(privilege.OpSum), Pts: ghost},
		}, []*data.Store{filled(piece), filled(ghost)}},
		{"lshape", l, []core.Visible{
			{Task: 0, Priv: privilege.Writes(), Pts: l},
		}, []*data.Store{filled(index.FromRect(geometry.R2(0, 0, 31, 31)))}},
	} {
		b.Run(c.name, func(b *testing.B) {
			req := core.Req{Region: region.NewTree("R", c.space, fs).Root, Priv: privilege.Reads()}
			source := func(v core.Visible, _ field.ID) *data.Store { return c.srcs[v.Task] }
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if core.Materialize(req, c.plan, source).Len() != int(c.space.Volume()) {
					b.Fatal("materialized input has holes")
				}
			}
		})
	}
}

// BenchmarkEndToEndExecution measures analysis plus parallel value
// execution on the Figure 1 loop: the executor every Runtime ships, at
// most one runner per P, drained once per timed loop.
func BenchmarkEndToEndExecution(b *testing.B) {
	for _, alg := range []string{"raycast", "warnock", "paint"} {
		b.Run(alg, func(b *testing.B) { rtBench(b, alg) })
	}
}

func rtBench(b *testing.B, alg string) {
	tree, p, g := testutil.GraphTree()
	newAn, _ := algo.Lookup(alg)
	x := core.NewExecutor(newAn(tree, core.Options{}), testutil.FullInit(tree), nil)
	s := core.NewStream(tree)
	k := core.HashKernel{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Submit(testutil.LaunchT1(s, p, g, i%3), k, nil)
		x.Submit(testutil.LaunchT2(s, p, g, i%3), k, nil)
	}
	x.Drain()
}

// BenchmarkDependenceAnalysisScaling measures how per-launch analysis cost
// scales with machine size for each algorithm (circuit steady state) — the
// Go-measured counterpart of the weak-scaling simulation.
func BenchmarkDependenceAnalysisScaling(b *testing.B) {
	for _, nodes := range []int{4, 16, 64} {
		for _, name := range []string{"paint", "warnock", "raycast"} {
			name, nodes := name, nodes
			b.Run(fmt.Sprintf("%s/nodes=%d", name, nodes), func(b *testing.B) {
				newAn, _ := algo.Lookup(name)
				inst := circuit.New(nodes)
				an := newAn(inst.Tree, core.Options{})
				stream := core.NewStream(inst.Tree)
				for _, l := range inst.Emit(stream, 0) {
					an.Analyze(l.Task)
				}
				iter := 1
				launches := inst.Emit(stream, iter)
				li := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if li == len(launches) {
						b.StopTimer()
						iter++
						launches = inst.Emit(stream, iter)
						li = 0
						b.StartTimer()
					}
					an.Analyze(launches[li].Task)
					li++
				}
			})
		}
	}
}

var critSink *visibility.CritSummary

// BenchmarkCriticalPath times one CriticalPath query on a runtime whose
// critical path stays two tasks long however many tasks it holds: one
// write, then reads of what it wrote. The reads cycle over 1,000 pieces,
// so no piece's read history, and no launch's analysis, grows with the
// stream. A query reads the labels fixed at launch, so 10⁵ tasks cost
// what 10³ do.
func BenchmarkCriticalPath(b *testing.B) {
	const pieces = 1000
	for _, n := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			rt := visibility.New(visibility.Config{})
			defer rt.Close()
			g := rt.CreateRegion("g", visibility.Line(0, 64*pieces-1), "v")
			p := g.PartitionEqual("P", pieces)
			rt.Launch(visibility.TaskSpec{Name: "write", Accesses: []visibility.Access{visibility.Write(g, "v")}})
			for i := 1; i < n; i++ {
				rt.Launch(visibility.TaskSpec{Name: "read", Accesses: []visibility.Access{visibility.Read(p.Sub(i%pieces), "v")}})
			}
			rt.Wait()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				critSink = rt.CriticalPath(g, 3)
			}
		})
	}
}

var precedeSink bool

// BenchmarkMustPrecede times one MustPrecede query that a backward search
// answers only after the whole stream: one write of piece 0, then a chain
// of writes to piece 1. Every task of the chain is an ancestor of the
// last, and none of them reaches task 0. The labels answer it at once:
// the last task's smallest ancestor is task 1, so the query allocates
// nothing and costs the same at 10⁵ tasks as at 10³ (~6 ns both at
// -benchtime 200000x; the search took ~7 µs and ~0.8 ms).
func BenchmarkMustPrecede(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			rt := visibility.New(visibility.Config{})
			defer rt.Close()
			g := rt.CreateRegion("g", visibility.Line(0, 127), "v")
			p := g.PartitionEqual("P", 2)
			rt.Launch(visibility.TaskSpec{Name: "write", Accesses: []visibility.Access{visibility.Write(p.Sub(0), "v")}})
			for i := 1; i < n; i++ {
				rt.Launch(visibility.TaskSpec{Name: "chain", Accesses: []visibility.Access{visibility.Write(p.Sub(1), "v")}})
			}
			rt.Wait()
			if rt.MustPrecede(g, 0, n-1) || !rt.MustPrecede(g, 1, n-1) {
				b.Fatal("the chain must not reach task 0 and must reach task 1")
			}
			if allocs := testing.AllocsPerRun(10, func() { precedeSink = rt.MustPrecede(g, 0, n-1) }); allocs != 0 {
				b.Fatalf("MustPrecede(0, last) allocates %.0f times: it searched", allocs)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				precedeSink = rt.MustPrecede(g, 0, n-1)
			}
		})
	}
}

var readSink *visibility.Snapshot

// BenchmarkReadPoll times a Runtime that only polls: a 1,024-point region
// written once in 8 pieces, then read whole by rt.Read, each read a launch
// of its own, after 100, 1,000 and 10,000 earlier reads. No write ever
// covers a read, so each analyzer keeps every read entry and a read costs
// more the more reads came before it (ROADMAP item 20, probe 3). The timed
// reads add to that history too, so run it at a fixed, short count, e.g.
// -benchtime 50x: the figure is µs per Read, us/read.
func BenchmarkReadPoll(b *testing.B) {
	for _, alg := range []string{"raycast", "warnock", "paint"} {
		for _, prior := range []int{100, 1_000, 10_000} {
			b.Run(fmt.Sprintf("%s/reads=%d", alg, prior), func(b *testing.B) {
				rt := visibility.New(visibility.Config{Algorithm: alg})
				defer rt.Close()
				g := rt.CreateRegion("g", visibility.Line(0, 1023), "v")
				p := g.PartitionEqual("P", 8)
				for i := 0; i < 8; i++ {
					rt.Launch(visibility.TaskSpec{Name: "write", Accesses: []visibility.Access{visibility.Write(p.Sub(i), "v")}})
				}
				for i := 0; i < prior; i++ {
					readSink = rt.Read(g, "v")
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					readSink = rt.Read(g, "v")
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/read")
			})
		}
	}
}
