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
	"fmt"
	"os"
	"strconv"
	"testing"

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
	"visibility/internal/raycast"
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
// BenchmarkHarnessLaunch is the same launch with that included.
func BenchmarkAnalyzePerLaunch(b *testing.B) {
	for _, name := range algo.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			newAn, err := algo.Lookup(name)
			if err != nil {
				b.Fatal(err)
			}
			inst := circuit.New(16)
			an := newAn(inst.Tree, core.Options{})
			stream := core.NewStream(inst.Tree)
			// Warm up: initialization iteration.
			launches := inst.Emit(stream, 0)
			for _, l := range launches {
				an.Analyze(l.Task)
			}
			b.ResetTimer()
			n := 0
			for i := 0; i < b.N; i++ {
				if n == 0 {
					b.StopTimer()
					launches = inst.Emit(stream, i+1)
					n = len(launches)
					b.StartTimer()
				}
				n--
				an.Analyze(launches[len(launches)-1-n].Task)
			}
		})
	}
}

// BenchmarkHarnessLaunch measures a launch on the path harness.Run and
// visperf take: dist.Driver.Launch over dist.OwnerByPartition at 16 nodes,
// DCR as in §8. One benchmark iteration is one visperf leg — a fresh
// system, its init phase untimed, then the leg's steady steps (Emit
// included) — so -benchtime 5x is five legs.
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
				var launches, allocs int64
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
					before := obs.ReadAllocs()
					b.StartTimer()
					for k := 0; k < app.steps[alg]; k++ {
						ls := inst.Emit(stream, 1+k)
						run(ls)
						launches += int64(len(ls))
					}
					b.StopTimer()
					n, _ := obs.ReadAllocs().Since(before)
					allocs += n
				}
				b.ReportMetric(float64(launches)/b.Elapsed().Seconds(), "launches/s")
				b.ReportMetric(float64(allocs)/float64(launches), "allocs/launch")
			})
		}
	}
}

// BenchmarkObsOverhead is the observability-layer overhead guard: it
// measures steady-state raycast analysis throughput with span
// instrumentation absent (nil Spans in core.Options — the zero value every
// non-instrumented caller gets), with a span buffer installed but disabled
// (the state a long-lived process sits in between trace captures), with
// span recording enabled, and with the flight recorder journaling in both
// its disabled and always-on states. The instrumented-but-off
// configurations must stay within noise (<3%) of absent — CI enforces
// this — because the fast paths are one nil check or one atomic load;
// any measurable gap is a regression in the obs layer. The always-on
// recorder case is held to the same bound: journaling an event is an
// atomic load plus a mutex-guarded ring store on a coarse (per-split,
// per-materialize) path, which must stay invisible next to the analysis
// itself. The session case is what every visserve session runs — spans
// and recorder both on — and CI holds it within 25% of absent.
func BenchmarkObsOverhead(b *testing.B) {
	disabled := obs.NewBuffer(1 << 12)
	disabled.SetEnabled(false)
	enabled := obs.NewBuffer(1 << 12)
	enabled.SetEnabled(true)
	recOff := recorder.New(1 << 14)
	recOff.SetEnabled(false)
	recOn := recorder.New(1 << 14)
	cases := []struct {
		name string
		opts core.Options
	}{
		{"absent", core.Options{}},
		{"disabled", core.Options{Spans: disabled}},
		{"enabled", core.Options{Spans: enabled}},
		{"recorder-disabled", core.Options{Recorder: recOff}},
		{"recorder-enabled", core.Options{Recorder: recOn}},
		{"session", core.Options{Spans: enabled, Recorder: recOn}},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			inst := circuit.New(16)
			an := raycast.New(inst.Tree, tc.opts)
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

// BenchmarkEndToEndExecution measures the full public-API stack (analysis
// plus parallel value execution) on the Figure 1 loop.
func BenchmarkEndToEndExecution(b *testing.B) {
	for _, alg := range []string{"raycast", "warnock", "paint"} {
		alg := alg
		b.Run(alg, func(b *testing.B) { rtBench(b, alg) })
	}
}

func rtBench(b *testing.B, alg string) {
	tree, p, g := testutil.GraphTree()
	newAn, _ := algo.Lookup(alg)
	an := newAn(tree, core.Options{})
	eng := core.NewEngine(tree, an, testutil.FullInit(tree))
	s := core.NewStream(tree)
	k := core.HashKernel{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Launch(testutil.LaunchT1(s, p, g, i%3), k)
		eng.Launch(testutil.LaunchT2(s, p, g, i%3), k)
	}
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
