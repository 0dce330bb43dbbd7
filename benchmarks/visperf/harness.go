package main

import (
	"fmt"
	"runtime"
	"time"

	"visibility/internal/algo"
	"visibility/internal/apps"
	"visibility/internal/cluster"
	"visibility/internal/core"
	"visibility/internal/dist"
	"visibility/internal/harness"
	"visibility/internal/index"
	"visibility/internal/obs"
	"visibility/internal/region"
)

// harnessNodes is the simulated machine size of both harness-path
// workloads. It is a constant, not a flag: the streams of internal/apps
// are deterministic in the node count, so this is the one input that
// shapes them.
const harnessNodes = 16

// checkSteps is how many steady steps the output checks cover: virtual
// times are compared with harness.Run at MeasureIters = checkSteps, and
// dependences are checked for the init phase plus this many steps.
const checkSteps = 2

// harnessWorkload drives one internal/apps application through
// dist.Driver onto the simulated cluster, exactly as harness.Run does.
type harnessWorkload struct {
	app   string
	build apps.Builder
}

func (w *harnessWorkload) name() string { return w.app }

// drivers: one goroutine drives a harness-path leg.
func (w *harnessWorkload) drivers() int { return 1 }

// dcr follows §8: ray casting and Warnock run control-replicated, the
// painter does not.
func dcr(alg string) bool { return alg != "paint" }

// captureAnalyzer is the benchmark-owned core.Analyzer decorator handed to
// dist.New: it wraps each Analyze in an "analyzer.analyze" span and keeps
// the dependences of the first keep launches for the soundness check.
// Name and Stats pass through, and the result is returned untouched.
type captureAnalyzer struct {
	core.Analyzer
	tr   *tracer
	keep int
	deps [][]int
}

func (a *captureAnalyzer) Analyze(t *core.Task) *core.Result {
	a.tr.begin("analyzer.analyze")
	res := a.Analyzer.Analyze(t)
	a.tr.end()
	if len(a.deps) < a.keep {
		a.deps = append(a.deps, res.Deps)
	}
	return res
}

// legOpts selects what one leg records beyond its end-to-end timings.
type legOpts struct {
	tr     *tracer // non-nil: record spans (traced run)
	check  bool    // run the output checks on this leg
	inject string  // "dep" or "snapshot": corrupt the check's expectation
}

// legResult is one (workload, analyzer) leg: a fresh system, set up, then
// driven for a fixed number of steady steps.
type legResult struct {
	setup  time.Duration
	steady time.Duration // wall of the steady steps
	stepNs []float64     // latency of each completed steady step
	// offNs, when set, is how long the driving thread was off the CPU
	// during each step (wall minus thread CPU time): stolen time, plus any
	// wait for other threads. Only the single-threaded harness path, whose
	// driver never blocks, can measure it.
	offNs    []float64
	launches int     // launches in the steady steps
	failed   int     // steps that did not complete or failed a check
	err      error   // first failure
	stolen   float64 // share of the leg's runnable CPU time the hypervisor withheld
	index    float64 // untraced run: the slowdown index the times were divided by

	// Steady-phase deltas and exact counts for the per-layer report.
	ops, deps          int64 // analyzer Stats deltas
	mallocs, bytes     int64
	virtInit, virtIter float64
	messages           int64
	allLaunches        int // init phase included

	threads []*tracer      // traced run: the tracers whose spans this leg recorded
	served  *serveObserved // traced service leg: what the server exported
}

func (r *legResult) fail(steps int, err error) {
	r.failed += steps
	if r.err == nil {
		r.err = err
	}
}

// leg runs one fresh harness cell: build the instance, the machine and
// the driver, run the init phase through the first barrier (setup), then
// time steps steady iterations one by one. The loop is harness.Run's,
// statement for statement; the check proves it.
func (w *harnessWorkload) leg(alg string, steps int, o legOpts) (res legResult) {
	done := 0
	defer func() {
		if p := recover(); p != nil {
			res.fail(steps-done, fmt.Errorf("%s/%s: panic: %v", w.app, alg, p))
		}
	}()
	newAn, err := algo.Lookup(alg)
	if err != nil {
		panic(err)
	}
	// The leg stays on one OS thread so that thread's CPU clock covers it.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start, meter := time.Now(), startSteal()
	inst := w.build(harnessNodes)
	reg := obs.NewRegistry()
	clusterCfg := cluster.DefaultConfig(harnessNodes)
	clusterCfg.Metrics = reg
	machine := cluster.New(clusterCfg)
	owner := dist.OwnerByPartition(inst.Owned, harnessNodes)
	build := dist.NewAnalyzerFunc(newAn)
	var capture *captureAnalyzer
	if o.tr != nil || o.check {
		build = func(tree *region.Tree, opts core.Options) core.Analyzer {
			capture = &captureAnalyzer{Analyzer: newAn(tree, opts), tr: o.tr}
			return capture
		}
	}
	distCfg := dist.DefaultConfig(dcr(alg))
	distCfg.Metrics = reg
	driver := dist.New(machine, inst.Tree, build, owner, distCfg)
	stream := core.NewStream(inst.Tree)
	mapper := dist.OwnerMapper{}
	launch := func(ls []apps.Launch) {
		for _, l := range ls {
			o.tr.begin("dist.launch")
			driver.Launch(l.Task, mapper.Place(l.Task, l.Node, harnessNodes), l.Duration)
			o.tr.end()
		}
		res.allLaunches += len(ls)
	}
	if o.check {
		// Enough for the init phase, iteration 0 and checkSteps more.
		capture.keep = 1 << 20
	}
	if inst.EmitInit != nil {
		launch(inst.EmitInit(stream))
	}
	launch(inst.Emit(stream, 0))
	res.virtInit = driver.Barrier()
	res.setup = time.Since(start)

	stats := driver.Analyzer().Stats()
	before := *stats
	var allocs obs.AllocSnapshot
	if o.tr != nil {
		allocs = obs.ReadAllocs()
	}
	initLaunches := res.allLaunches
	res.stepNs = make([]float64, 0, steps)
	steadyStart := time.Now()
	for k := 0; k < steps; k++ {
		t0 := time.Now()
		cpu0, cpuOK := threadCPU()
		o.tr.beginStep(k)
		o.tr.begin("apps.emit")
		ls := inst.Emit(stream, 1+k)
		o.tr.end()
		launch(ls)
		o.tr.end()
		wall := float64(time.Since(t0))
		res.stepNs = append(res.stepNs, wall)
		if cpu1, _ := threadCPU(); cpuOK {
			res.offNs = append(res.offNs, wall-float64(cpu1-cpu0))
		}
		done++
		if o.check && k+1 == checkSteps {
			capture.keep = 0
			res.virtIter = (driver.Barrier() - res.virtInit) / checkSteps
		}
	}
	res.steady = time.Since(steadyStart)
	res.launches = res.allLaunches - initLaunches
	o.tr.begin("dist.barrier")
	total := driver.Barrier()
	o.tr.end()
	res.stolen = meter.share()
	if o.tr != nil {
		res.mallocs, res.bytes = obs.ReadAllocs().Since(allocs)
		res.threads = []*tracer{o.tr}
	}
	if !o.check && steps > 0 {
		res.virtIter = (total - res.virtInit) / float64(steps)
	}
	res.ops = stats.Ops() - before.Ops()
	res.deps = stats.DepsReported - before.DepsReported
	res.messages, _ = machine.Messages()

	if o.check {
		if err := w.check(alg, &res, stream, capture.deps, o.inject); err != nil {
			res.fail(done, err)
		}
	}
	return res
}

// check compares the leg with its two references. The virtual init and
// per-iteration times must equal harness.Run's for the same cell bit for
// bit, which proves the benchmark's loop is the harness's loop. The
// dependences the analyzer reported for the init phase and the first
// checkSteps steps must preserve every exact dependence (core.CheckSound
// against the O(n²) core.ExactDeps).
func (w *harnessWorkload) check(alg string, res *legResult, stream *core.Stream, got [][]int, inject string) error {
	if len(res.stepNs) < checkSteps {
		return fmt.Errorf("%s/%s: check leg ran %d steps, need %d", w.app, alg, len(res.stepNs), checkSteps)
	}
	ref, err := harness.Run(harness.Config{
		App: w.build, AppName: w.app, Algorithm: alg, DCR: dcr(alg),
		Nodes: harnessNodes, MeasureIters: checkSteps,
	})
	if err != nil {
		return err
	}
	if res.virtInit != ref.InitTime || res.virtIter != ref.IterTime {
		return fmt.Errorf("%s/%s: virtual init/iter %v/%v differ from harness.Run %v/%v",
			w.app, alg, res.virtInit, res.virtIter, ref.InitTime, ref.IterTime)
	}
	tasks := stream.Tasks[:len(got)]
	if inject == "dep" {
		got = dropOneDep(got)
	}
	if err := core.CheckSound(got, core.ExactDeps(tasks)); err != nil {
		return fmt.Errorf("%s/%s: %w", w.app, alg, err)
	}
	return nil
}

// dropOneDep returns deps with the last task's dependences removed — the
// deliberately wrong expectation the negative test injects.
func dropOneDep(deps [][]int) [][]int {
	out := append([][]int(nil), deps...)
	for i := len(out) - 1; i >= 0; i-- {
		if len(out[i]) > 0 {
			out[i] = nil
			break
		}
	}
	return out
}

// spaces returns the workload's region tree as one group of subregion
// spaces per partition, for the index and bvh micro passes.
func (w *harnessWorkload) spaces() [][]index.Space {
	tree := w.build(harnessNodes).Tree
	var out [][]index.Space
	for i := 0; i < tree.NumPartitions(); i++ {
		var group []index.Space
		for _, sub := range tree.PartitionAt(i).Subregions {
			group = append(group, sub.Space)
		}
		out = append(out, group)
	}
	return out
}
