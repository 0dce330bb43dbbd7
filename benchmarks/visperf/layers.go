package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"

	"visibility"
	"visibility/internal/algo"
	"visibility/internal/autotrace"
	"visibility/internal/bvh"
	"visibility/internal/core"
	"visibility/internal/geometry"
	"visibility/internal/index"
	"visibility/internal/obs"
	"visibility/internal/obs/recorder"
	"visibility/internal/region"
	"visibility/internal/shard"
	"visibility/internal/trace"
	"visibility/internal/wire"
)

// layerMetrics collects the per-layer metrics of one traced run by name.
type layerMetrics map[string]float64

// indexPairs caps the operand sample of the index micro pass.
const indexPairs = 4096

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// operandPairs builds the index micro pass's sample from the workload's
// own region tree: every subregion space paired with every sibling
// subregion space whose bounds overlap it — the operand shapes the
// analyzers hand to the set algebra — shuffled by the seed and capped.
func operandPairs(groups [][]index.Space, seed int64) [][2]index.Space {
	var all []index.Space
	for _, g := range groups {
		for _, s := range g {
			if !s.IsEmpty() {
				all = append(all, s)
			}
		}
	}
	var pairs [][2]index.Space
	for i, a := range all {
		for j, b := range all {
			if i != j && a.Bounds().Overlaps(b.Bounds()) {
				pairs = append(pairs, [2]index.Space{a, b})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	if len(pairs) > indexPairs {
		pairs = pairs[:indexPairs]
	}
	return pairs
}

// indexPass times the five set-algebra operations over the operand
// sample and counts their allocations.
func indexPass(groups [][]index.Space, seed int64, microOps int, m layerMetrics) {
	pairs := operandPairs(groups, seed)
	if len(pairs) == 0 {
		return
	}
	rounds := microOps/len(pairs) + 1
	rects := 0
	for _, p := range pairs {
		rects += p[0].NumRects() + p[1].NumRects()
	}
	m["index.rects_per_operand"] = float64(rects) / float64(2*len(pairs))
	acc := 0
	for _, op := range []struct {
		name   string
		allocs bool
		call   func(a, b index.Space) int
	}{
		{"intersect", true, func(a, b index.Space) int { return a.Intersect(b).NumRects() }},
		{"subtract", true, func(a, b index.Space) int { return a.Subtract(b).NumRects() }},
		{"covers", true, func(a, b index.Space) int {
			if a.Covers(b) {
				return 1
			}
			return 0
		}},
		{"overlaps", false, func(a, b index.Space) int {
			if a.Overlaps(b) {
				return 1
			}
			return 0
		}},
		{"union", false, func(a, b index.Space) int { return a.Union(b).NumRects() }},
	} {
		allocs := obs.ReadAllocs()
		start, meter := time.Now(), startSteal()
		for r := 0; r < rounds; r++ {
			for _, p := range pairs {
				acc += op.call(p[0], p[1])
			}
		}
		dur := float64(time.Since(start)) * meter.ran()
		n := float64(rounds * len(pairs))
		m["index."+op.name+"_ns_op"] = dur / n
		if op.allocs {
			count, _ := obs.ReadAllocs().Since(allocs)
			m["index."+op.name+"_allocs_op"] = float64(count) / n
		}
	}
	runtime.KeepAlive(acc)
}

// bvhPass builds the bounding-volume hierarchy over every rectangle of
// the tree and queries it, and the K-d decomposition ray casting falls
// back to, with each rectangle in turn.
func bvhPass(groups [][]index.Space, microOps int, m layerMetrics) {
	var inputs []bvh.Input
	var bounds geometry.Rect
	for _, g := range groups {
		for _, s := range g {
			for _, r := range s.Rects() {
				if len(inputs) == 0 {
					bounds = r
				} else {
					bounds = bounds.Union(r)
				}
				inputs = append(inputs, bvh.Input{Box: r, ID: len(inputs)})
			}
		}
	}
	if len(inputs) == 0 {
		return
	}
	const builds = 20
	var tree *bvh.Tree
	start, meter := time.Now(), startSteal()
	for i := 0; i < builds; i++ {
		tree = bvh.Build(append([]bvh.Input(nil), inputs...))
	}
	m["bvh.build_us"] = float64(time.Since(start)) * meter.ran() / builds / 1e3
	kd := bvh.NewKD(bounds, 64)
	for _, in := range inputs {
		kd.Insert(in.ID, in.Box)
	}
	rounds := microOps/len(inputs) + 1
	hits := 0
	visit := func(int) { hits++ }
	for _, q := range []struct {
		name  string
		query func(geometry.Rect, func(int)) int
	}{{"bvh.query_ns_op", tree.Query}, {"bvh.kd_query_ns_op", kd.Query}} {
		start, meter := time.Now(), startSteal()
		for r := 0; r < rounds; r++ {
			for _, in := range inputs {
				q.query(in.Box, visit)
			}
		}
		m[q.name] = float64(time.Since(start)) * meter.ran() / float64(rounds*len(inputs))
	}
	runtime.KeepAlive(hits)
}

// analyzerMetrics reports one analyzer's share of a leg: how long the
// Analyze calls took, what fraction of the steady wall they were, and the
// exact operation and dependence counts per launch.
func analyzerMetrics(alg string, analyzeNs []float64, steady time.Duration, ops, deps, allocs int64, launches int, m layerMetrics) {
	sum := 0.0
	for _, d := range analyzeNs {
		sum += d
	}
	m[alg+".analyze_us_p50"] = quantile(analyzeNs, 0.5) / 1e3
	m[alg+".analyze_us_p95"] = quantile(analyzeNs, tailPercentile(len(analyzeNs), 0.95)) / 1e3
	m[alg+".busy_share"] = div(sum, float64(steady))
	m[alg+".ops_per_launch"] = div(float64(ops), float64(launches))
	m[alg+".deps_per_launch"] = div(float64(deps), float64(launches))
	m[alg+".allocs_per_launch"] = div(float64(allocs), float64(launches))
}

// variantRatios runs the plain configuration and then each wrapper
// variant back to back and reports variant time ÷ plain time, both with
// steal taken out. A fresh plain run precedes every group of three, so
// slow drift of the machine cannot pass for wrapper cost.
func variantRatios(m layerMetrics, plain func() (time.Duration, error), variants []variantRun) error {
	unstolen := func(run func() (time.Duration, error)) (float64, error) {
		meter := startSteal()
		dur, err := run()
		return float64(dur) * meter.ran(), err
	}
	var base float64
	for i, v := range variants {
		if i%3 == 0 {
			var err error
			if base, err = unstolen(plain); err != nil {
				return err
			}
		}
		dur, err := unstolen(v.run)
		if err != nil {
			return fmt.Errorf("%s: %w", v.metric, err)
		}
		m[v.metric] = div(dur, base)
	}
	return nil
}

type variantRun struct {
	metric string
	run    func() (time.Duration, error)
}

// shardCounters turns the shard layer's registry counters into the
// per-launch dispatch rate and the share of atoms skipped. A dispatch
// rate of 0 is a finding, not a failure: shard.New homes atoms by hash,
// and when both atoms of a 2-shard analyzer land on one home every launch
// runs inline, so s2_over_plain then times work splitting alone and the
// report says so.
func shardCounters(reg *obs.Registry, launches int, m layerMetrics) {
	snap := reg.Snapshot()
	m["shard.dispatches_per_launch"] = div(float64(snap["shard/dispatches"]), float64(launches))
	m["shard.atom_skip_share"] = div(float64(snap["shard/atom_skips"]), float64(snap["shard/atom_runs"]+snap["shard/atom_skips"]))
}

// --- harness path -------------------------------------------------------

// layers fills the harness-path metrics from the three traced legs, then
// runs the wrapper variants over the bare ray-casting analyzer.
func (w *harnessWorkload) layers(t *tracedRun) error {
	legs, tracers, m := t.legs, t.tracers, t.m
	var emitNs, distSelf, barrierNs, steady float64
	var steps, launches, allLaunches int
	var messages int64
	for _, alg := range analyzers {
		leg, tr := legs[alg], tracers[alg]
		an := tr.stat("analyzer.analyze")
		// The init phase ran through the decorator too; the steady
		// launches are the last ones.
		durs := an.durs[len(an.durs)-leg.launches:]
		analyzerMetrics(alg, durs, leg.steady, leg.ops, leg.deps, leg.mallocs, leg.launches, m)
		m[alg+".virt_init_s"] = leg.virtInit
		m[alg+".virt_iter_s"] = leg.virtIter
		emitNs += float64(tr.stat("apps.emit").total)
		dl := tr.stat("dist.launch")
		for i, d := range dl.durs[len(dl.durs)-leg.launches:] {
			distSelf += d - durs[i]
		}
		barrierNs += float64(tr.stat("dist.barrier").total)
		steady += float64(leg.steady)
		steps += len(leg.stepNs)
		launches += leg.launches
		allLaunches += leg.allLaunches
		messages += leg.messages
	}
	m["apps.emit_us_step"] = div(emitNs, float64(steps)) / 1e3
	m["dist.self_us_launch"] = div(distSelf, float64(launches)) / 1e3
	m["dist.self_share"] = div(distSelf, steady)
	m["dist.barrier_ms"] = barrierNs / float64(len(analyzers)) / 1e6
	m["cluster.messages_per_launch"] = div(float64(messages), float64(allLaunches))
	return w.variants(t.size.variant, t.size.variantWarm, m)
}

// variants times ray casting bare (no driver, no cluster) on the
// workload's stream, plain and under each wrapper and instrumentation
// hook.
func (w *harnessWorkload) variants(steps, warm int, m layerMetrics) error {
	newAn, err := algo.Lookup("raycast")
	if err != nil {
		return err
	}
	// analyzed and timed count the launches of the last drive: all of
	// them, and those inside the timed window.
	var analyzed, timed int
	drive := func(mk func(tree *region.Tree) (core.Analyzer, *trace.Tracer), atStart func()) (time.Duration, error) {
		inst := w.build(harnessNodes)
		an, tracer := mk(inst.Tree)
		stream := core.NewStream(inst.Tree)
		analyzed = 0
		emit := func(iter int) {
			if tracer != nil && iter > 0 {
				tracer.Begin(0)
				defer tracer.End()
			}
			ls := inst.Emit(stream, iter)
			for _, l := range ls {
				an.Analyze(l.Task)
			}
			analyzed += len(ls)
		}
		if inst.EmitInit != nil {
			ls := inst.EmitInit(stream)
			for _, l := range ls {
				an.Analyze(l.Task)
			}
			analyzed += len(ls)
		}
		for it := 0; it <= warm; it++ {
			emit(it)
		}
		if atStart != nil {
			atStart()
		}
		before := analyzed
		start := time.Now()
		for k := 0; k < steps; k++ {
			emit(warm + 1 + k)
		}
		timed = analyzed - before
		return time.Since(start), nil
	}
	with := func(opts core.Options) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			return drive(func(tree *region.Tree) (core.Analyzer, *trace.Tracer) { return newAn(tree, opts), nil }, nil)
		}
	}
	sharded := func(n int) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			reg := obs.NewRegistry()
			var sh *shard.Analyzer
			dur, err := drive(func(tree *region.Tree) (core.Analyzer, *trace.Tracer) {
				sh = shard.New(tree, core.Options{Metrics: reg}, n, shard.Factory(newAn))
				if n > 1 {
					// Time the worker fan-out even where New would pick
					// the inline mode (GOMAXPROCS 1).
					sh.SetSerial(false)
				}
				return sh, nil
			}, nil)
			sh.Close()
			if n > 1 {
				shardCounters(reg, analyzed, m)
			}
			return dur, err
		}
	}
	return variantRatios(m, with(core.Options{}), []variantRun{
		{"shard.s1_over_plain", sharded(1)},
		{"shard.s2_over_plain", sharded(2)},
		{"autotrace.over_plain", func() (time.Duration, error) {
			var auto *autotrace.Auto
			var replayed int64
			dur, err := drive(func(tree *region.Tree) (core.Analyzer, *trace.Tracer) {
				auto = autotrace.New(newAn(tree, core.Options{}), core.Options{})
				return auto, nil
			}, func() { replayed = auto.AutoStats().Trace.Replayed })
			m["autotrace.replay_share"] = div(float64(auto.AutoStats().Trace.Replayed-replayed), float64(timed))
			return dur, err
		}},
		{"trace.over_plain", func() (time.Duration, error) {
			return drive(func(tree *region.Tree) (core.Analyzer, *trace.Tracer) {
				tr := trace.New(newAn(tree, core.Options{}), core.Options{})
				return tr, tr
			}, nil)
		}},
		{"prov.over_plain", with(core.Options{Prov: core.NewProvenance()})},
		{"recorder.over_plain", with(core.Options{Recorder: recorder.New(16384)})},
		{"spans.over_plain", with(core.Options{Spans: obs.NewBuffer(4096)})},
	})
}

// --- service path -------------------------------------------------------

// runtimeResult is one pass of the serve program through the public
// Runtime API, bypassing wire and the server.
type runtimeResult struct {
	steady     time.Duration
	launches   int
	launchNs   []float64
	readNs     []float64
	waitNs     []float64
	mallocs    int64
	cacheHits  int64
	cacheMiss  int64
	reg        *obs.Registry
	analyzed   int   // launches and inline reads the analyzer saw, set-up included
	autoReplay int64 // launches replayed inside the timed window
}

// driveRuntime declares the program through wire (so the region tree is
// the served one) and then launches its tasks with visibility.Launch
// directly, with Go kernels equal to the wire ones: each launch, the
// Wait after a step's launches and the step's Read are timed. bracket
// wraps every iteration in BeginTrace/EndTrace (Config.Tracing).
func (w *serveWorkload) driveRuntime(cfg visibility.Config, steps int, bracket bool) (runtimeResult, error) {
	var r runtimeResult
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	rt := visibility.New(cfg)
	defer rt.Close()
	env := wire.NewEnv(rt)
	if _, err := env.Apply(w.decl); err != nil {
		return r, err
	}
	n := env.Region("N")
	parts := map[string]*visibility.Partition{}
	for _, p := range n.Partitions() {
		parts[p.PartitionName()] = p
	}
	affine := func(scale, offset float64) func(int, visibility.Point, float64) float64 {
		return func(_ int, _ visibility.Point, in float64) float64 { return in*scale + offset }
	}
	fill := func(v float64) func(int, visibility.Point) float64 {
		return func(int, visibility.Point) float64 { return v }
	}
	type phase struct {
		name, write, reduce string
		kernel              visibility.Kernel
	}
	phases := []phase{
		{"t1", "up", "down", visibility.Kernel{Write: affine(1, w.consts[0]), Reduce: fill(w.consts[2])}},
		{"t2", "down", "up", visibility.Kernel{Write: affine(w.consts[4], w.consts[1]), Reduce: fill(w.consts[3])}},
	}
	timed := false
	step := func() {
		for it := 0; it < w.iters; it++ {
			if bracket {
				rt.BeginTrace(n, 0)
			}
			for _, ph := range phases {
				for i := 0; i < w.pieces; i++ {
					spec := visibility.TaskSpec{
						Name: ph.name,
						Accesses: []visibility.Access{
							visibility.Write(parts["P"].Sub(i), ph.write),
							visibility.Reduce(visibility.OpSum, parts["G"].Sub(i), ph.reduce),
						},
						Kernel: ph.kernel,
					}
					t0 := time.Now()
					rt.Launch(spec)
					if timed {
						r.launchNs = append(r.launchNs, float64(time.Since(t0)))
					}
				}
			}
			if bracket {
				rt.EndTrace(n)
			}
		}
		t0 := time.Now()
		rt.Wait()
		t1 := time.Now()
		rows(rt, n, "up")
		if timed {
			r.waitNs = append(r.waitNs, float64(t1.Sub(t0)))
			r.readNs = append(r.readNs, float64(time.Since(t1)))
		}
	}
	step()
	timed = true
	replayed := rt.AutoTraceStats(n).Trace.Replayed
	allocs := obs.ReadAllocs()
	start, meter := time.Now(), startSteal()
	for k := 0; k < steps; k++ {
		step()
	}
	ran := meter.ran()
	r.steady = time.Duration(float64(time.Since(start)) * ran)
	scaleAll(ran, r.launchNs, r.waitNs, r.readNs)
	r.mallocs, _ = obs.ReadAllocs().Since(allocs)
	r.launches = steps * len(w.batch.Tasks)
	want, err := w.reference(steps)
	if err != nil {
		return r, err
	}
	if got := rows(rt, n, "up"); !equalRows(got, want.up) {
		return r, fmt.Errorf("%s: direct Runtime pass differs from the Validate-mode reference", w.id)
	}
	snap := cfg.Metrics.Snapshot()
	r.cacheHits, r.cacheMiss = snap["sched/cache/hits"], snap["sched/cache/misses"]
	r.reg = cfg.Metrics
	r.analyzed = (steps+1)*(len(w.batch.Tasks)+1) + 1
	r.autoReplay = rt.AutoTraceStats(n).Trace.Replayed - replayed
	return r, nil
}

func equalRows(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// sessionConfig is the configuration server.createSession gives every
// session's runtime: metrics, spans, the flight recorder and provenance
// all on.
func sessionConfig(alg string) visibility.Config {
	return visibility.Config{
		Algorithm: alg, Metrics: obs.NewRegistry(), Spans: obs.NewBuffer(4096),
		Recorder: recorder.New(16384), Provenance: true,
	}
}

// layers fills the service-path metrics: the client and server numbers
// from the traced HTTP legs, wire and analyzer numbers from an in-process
// replica per analyzer, Runtime and sched numbers from a direct pass, and
// the wrapper variants through Config.
func (w *serveWorkload) layers(t *tracedRun) error {
	legs, tracers, m := t.legs, t.tracers, t.m
	steps, variantSteps := t.size.steps["raycast"], t.size.variant
	perStep := float64(len(w.batch.Tasks))
	client, replica := newTracer(t.base), newTracer(t.base)
	var httpStep, replicaStep, queueWait, httpWorkloads, httpSnapshot []float64
	var rejected, requests int64
	var batchBytes, snapBytes, httpSteps int
	for _, alg := range analyzers {
		leg := legs[alg]
		client.merge(tracers[alg])
		httpStep = append(httpStep, leg.stepNs...)
		httpSteps += len(leg.stepNs)
		seen := leg.served
		queueWait = append(queueWait, seen.queueWaitNs...)
		httpWorkloads = append(httpWorkloads, seen.httpUs["workloads"]...)
		httpSnapshot = append(httpSnapshot, seen.httpUs["snapshot"]...)
		rejected += seen.rejected
		requests += seen.requests
		snapBytes = seen.snapshotBytes

		tr := newTracer(t.base)
		rep, err := w.replica(alg, steps, tr)
		if err != nil {
			return fmt.Errorf("%s/%s replica: %w", w.id, alg, err)
		}
		t.procs = append(t.procs, traceProc{name: w.id + "/" + alg + " replica", threads: []*tracer{tr}})
		replica.merge(tr)
		replicaStep = append(replicaStep, rep.stepNs...)
		batchBytes = rep.batchBytes
		analyzerMetrics(alg, rep.analyzeNs, rep.steady, rep.ops, rep.deps, rep.mallocs, rep.launches, m)
	}
	for _, c := range []struct{ metric, span string }{
		{"client.submit_ms_p50", "client.submit"},
		{"client.snapshot_ms_p50", "client.snapshot"},
		{"client.explain_ms_p50", "client.explain"},
	} {
		m[c.metric] = quantile(client.stat(c.span).durs, 0.5) / 1e6
	}
	m["client.retries_per_step"] = div(float64(rejected), float64(httpSteps))
	m["server.self_ms_step"] = (quantile(httpStep, 0.5) - quantile(replicaStep, 0.5)) / 1e6
	m["server.queue_wait_us_p50"] = quantile(queueWait, 0.5) / 1e3
	m["server.queue_wait_us_p95"] = quantile(queueWait, tailPercentile(len(queueWait), 0.95)) / 1e3
	m["server.http_workloads_ms_p50"] = quantile(httpWorkloads, 0.5) / 1e3
	m["server.http_snapshot_ms_p50"] = quantile(httpSnapshot, 0.5) / 1e3
	m["server.rejected_share"] = div(float64(rejected), float64(requests))
	m["server.snapshot_bytes"] = float64(snapBytes)

	batches := float64(replica.stat("wire.apply").count)
	m["wire.bytes_per_batch"] = float64(batchBytes)
	m["wire.encode_us_batch"] = div(float64(replica.stat("wire.encode").total), batches) / 1e3
	m["wire.decode_us_batch"] = div(float64(replica.stat("wire.decode").total), batches) / 1e3
	m["wire.apply_us_batch"] = div(float64(replica.stat("wire.apply").total), batches) / 1e3

	direct, err := w.driveRuntime(sessionConfig("raycast"), steps, false)
	if err != nil {
		return err
	}
	launchSum := 0.0
	for _, d := range direct.launchNs {
		launchSum += d
	}
	m["runtime.launch_us_p50"] = quantile(direct.launchNs, 0.5) / 1e3
	m["runtime.launch_us_p95"] = quantile(direct.launchNs, tailPercentile(len(direct.launchNs), 0.95)) / 1e3
	m["runtime.read_us_p50"] = quantile(direct.readNs, 0.5) / 1e3
	m["runtime.exec_wait_us_step"] = quantile(direct.waitNs, 0.5) / 1e3
	m["runtime.launches_per_s"] = div(float64(direct.launches), direct.steady.Seconds())
	m["runtime.allocs_per_launch"] = div(float64(direct.mallocs), float64(direct.launches))
	m["sched.cache_hit_share"] = div(float64(direct.cacheHits), float64(direct.cacheHits+direct.cacheMiss))
	// wire.Env.Apply calls Runtime.Launch itself, where the benchmark
	// cannot put a span; its self time is the replica's apply time minus
	// the launch time the direct pass measured for the same launches.
	m["wire.apply_self_us_launch"] = (div(float64(replica.stat("wire.apply").total), batches)/perStep -
		div(launchSum, float64(direct.launches))) / 1e3

	plain := func(cfg visibility.Config, bracket bool) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			r, err := w.driveRuntime(cfg, variantSteps, bracket)
			return r.steady, err
		}
	}
	return variantRatios(m, plain(visibility.Config{}, false), []variantRun{
		{"shard.s1_over_plain", plain(visibility.Config{Shards: 1}, false)},
		{"shard.s2_over_plain", func() (time.Duration, error) {
			r, err := w.driveRuntime(visibility.Config{Shards: 2}, variantSteps, false)
			if err == nil {
				shardCounters(r.reg, r.analyzed, m)
			}
			return r.steady, err
		}},
		{"autotrace.over_plain", func() (time.Duration, error) {
			r, err := w.driveRuntime(visibility.Config{AutoTrace: true}, variantSteps, false)
			// Inline reads pass through the analyzer and replay too.
			m["autotrace.replay_share"] = div(float64(r.autoReplay), float64(r.launches+variantSteps))
			return r.steady, err
		}},
		{"trace.over_plain", plain(visibility.Config{Tracing: true}, true)},
		{"prov.over_plain", plain(visibility.Config{Provenance: true}, false)},
		{"recorder.over_plain", plain(visibility.Config{Recorder: recorder.New(16384)}, false)},
		{"spans.over_plain", plain(visibility.Config{Spans: obs.NewBuffer(4096)}, false)},
	})
}

// --- Go runtime ---------------------------------------------------------

// cpuSeconds samples the Go runtime's CPU-time classes: GC total, and
// everything but idle.
func cpuSeconds() (gc, busy float64) {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(samples)
	for _, s := range samples {
		if s.Value.Kind() != metrics.KindFloat64 {
			return 0, 0
		}
	}
	return samples[0].Value.Float64(), samples[1].Value.Float64() - samples[2].Value.Float64()
}
