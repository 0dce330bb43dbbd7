// Command visperf is the repository's wall-clock benchmark: four
// closed-loop workloads through the system's two top-level paths — the
// harness path (apps → dist.Driver → analyzer → cluster) and the service
// path (client → HTTP → server → wire → Runtime → sched) — each run once
// per analyzer with the analyzer legs interleaved, output-checked, and, in
// a separate traced run, attributed to layers. README.md beside this
// package has the metric and workload tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"visibility/internal/apps/circuit"
	"visibility/internal/apps/stencil"
	"visibility/internal/index"
)

// workload is one of the four benchmark workloads.
type workload interface {
	name() string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why() string
	sizes(smoke bool) sizes
	// drivers is how many goroutines drive one leg; a leg attempts
	// steps × drivers steps.
	drivers() int
	// leg runs one (workload, analyzer) leg on a fresh system.
	leg(alg string, steps int, o legOpts) legResult
	// spaces is the workload's region tree for the index and bvh passes.
	spaces() [][]index.Space
	// layers fills the path-specific per-layer metrics of a traced run.
	layers(t *tracedRun) error
}

// sizes fixes the work of a run: step counts, not a time box, so both
// sides of a later comparison process identical inputs.
type sizes struct {
	steps   map[string]int // steady steps per measured leg (per tenant on the service path)
	rounds  int            // measured rounds of three legs at the default budget
	traced  map[string]int // steady steps per leg of the traced run
	warm    int            // steps per leg of the check round
	variant int            // timed steps of each wrapper-variant pass
	// variantWarm is how many iterations a harness-path variant runs
	// before its timed window: autotrace needs two repetitions to commit
	// a candidate and one to record, explicit tracing one to record.
	variantWarm int
	microOps    int // calls each index and bvh operation is timed over
}

// fullMicroOps is the micro passes' call count at the measuring sizes.
const fullMicroOps = 40000

func sameSteps(n int) map[string]int {
	return map[string]int{"raycast": n, "warnock": n, "paint": n}
}

func (w *harnessWorkload) why() string {
	sz := w.sizes(false)
	st := sz.steps
	if w.app == "circuit" {
		return fmt.Sprintf("harness path, circuit n%d, 48 launches/step, %d rounds of %d/%d/%d steps (raycast/warnock/paint): aliased 1-D ghost sets with reductions, so index set algebra and the analyzer do almost all the work",
			harnessNodes, sz.rounds, st["raycast"], st["warnock"], st["paint"])
	}
	return fmt.Sprintf("harness path, stencil n%d, 32 launches/step, %d rounds of %d steps: 2-D one-rectangle read/write operands early-out of set algebra, so per-launch fixed cost (dist, core, allocation, GC) dominates",
		harnessNodes, sz.rounds, st["raycast"])
}

func (w *harnessWorkload) sizes(smoke bool) sizes {
	switch {
	case smoke:
		return sizes{steps: sameSteps(checkSteps), rounds: 1, traced: sameSteps(checkSteps), warm: checkSteps,
			variant: 1, variantWarm: 1, microOps: 1}
	case w.app == "circuit":
		// Ray casting is ~12x slower per step here; its legs get fewer
		// steps so the three legs of a round stay comparable in length.
		return sizes{steps: map[string]int{"raycast": 8, "warnock": 30, "paint": 24}, rounds: 26,
			traced: map[string]int{"raycast": 40, "warnock": 120, "paint": 120}, warm: checkSteps,
			variant: 5, variantWarm: 3, microOps: fullMicroOps}
	}
	return sizes{steps: sameSteps(250), rounds: 32, traced: sameSteps(1500), warm: 50,
		variant: 150, variantWarm: 3, microOps: fullMicroOps}
}

func (w *serveWorkload) why() string {
	sz := w.sizes(false)
	steps := sz.steps["raycast"]
	if w.explain {
		return fmt.Sprintf("service path, %d-point ring, %d pieces, 8 launches + Snapshot + Explain per step, %d rounds of %d steps: three requests per 8 launches, so HTTP, JSON, admission and queue hand-off dominate",
			w.points, w.pieces, sz.rounds, steps)
	}
	return fmt.Sprintf("service path, %d-point ring, %d pieces, 128 launches + Snapshot per step, %d rounds of %d steps: analysis is a small share; wire decode/apply, Runtime.Launch, sched, snapshot encode do the work",
		w.points, w.pieces, sz.rounds, steps)
}

func (w *serveWorkload) sizes(smoke bool) sizes {
	switch {
	case smoke:
		return sizes{steps: sameSteps(2), rounds: 1, traced: sameSteps(2), warm: 2, variant: 1, microOps: 1}
	case w.explain:
		return sizes{steps: sameSteps(300), rounds: 20, traced: sameSteps(1400), warm: 50, variant: 100, microOps: fullMicroOps}
	}
	return sizes{steps: sameSteps(30), rounds: 16, traced: sameSteps(90), warm: 5, variant: 10, microOps: fullMicroOps}
}

// workloads builds the four workloads; the seed shapes the serve programs
// (the harness-path streams are fixed by internal/apps).
func workloads(seed int64) []workload {
	tenants := runtime.GOMAXPROCS(0)
	batch := &serveWorkload{id: "serve_batch", points: 1024, pieces: 16, iters: 4}
	query := &serveWorkload{id: "serve_query", points: 64, pieces: 4, iters: 1, explain: true}
	batch.generate(seed, tenants)
	query.generate(seed, tenants)
	return []workload{
		&harnessWorkload{app: "circuit", build: circuit.New},
		&harnessWorkload{app: "stencil", build: stencil.New},
		batch, query,
	}
}

// e2eMetric is one end-to-end metric with the spread behind it.
type e2eMetric struct {
	value, q1, q3 float64
	raw           float64 // the same statistic before the machine-state correction
	n             int
	note          string
}

// result is one run of one workload: its metrics by name, the step
// counts, and every failure seen.
type result struct {
	workload  string
	metrics   map[string]e2eMetric // untraced run
	layers    layerMetrics         // traced run
	attempted int
	failed    int
	errs      []error
	rounds    int
	stolen    []float64      // steal share of every leg run
	states    []machineState // every reading of the reference kernels (untraced run)
	// Traced run: the share of step-span time its child spans cover, and
	// the share of steps whose children cover at least coverGoal of them.
	coverTime, coverSteps float64
}

func (r *result) count(steps int, leg *legResult) {
	r.attempted += steps
	r.failed += leg.failed
	if leg.err != nil {
		r.errs = append(r.errs, leg.err)
	}
}

// procs is the GOMAXPROCS every run sets, and so the number of tenants of
// a service-path leg. One P: on a shared host a run that needs two vCPUs
// at the same moment measures the hypervisor's wake-up latency, not the
// program (README.md, "Steadiness").
const procs = 1

// config is one invocation's settings.
type config struct {
	seed     int64
	seconds  float64
	smoke    bool
	inject   string
	traceDir string
}

// runLeg runs one leg and takes hypervisor steal out of its times: the
// set-up, the steady wall, every step latency and every recorded span are
// scaled by the share of the leg's runnable CPU time the vCPUs really ran
// (see stealMeter). Where the leg measured each step's off-CPU time, the
// stolen time is instead apportioned to the steps by it, which puts a
// burst of steal on the steps it hit. The share is kept for the report.
func runLeg(w workload, alg string, steps int, o legOpts, res *result) legResult {
	leg := w.leg(alg, steps, o)
	res.count(steps*w.drivers(), &leg)
	res.stolen = append(res.stolen, leg.stolen)
	ran := 1 - leg.stolen
	leg.setup = time.Duration(float64(leg.setup) * ran)
	leg.steady = time.Duration(float64(leg.steady) * ran)
	if len(leg.offNs) > 0 {
		var wall, off float64
		for i := range leg.stepNs {
			wall += leg.stepNs[i]
			off += leg.offNs[i]
		}
		// The share of off-CPU time that was steal. With one P the
		// thread is also off the CPU while a GC worker's thread has the
		// P, so those steps get a part of the stolen time too; in total
		// exactly the leg's stolen time comes out.
		r := math.Min(1, div(leg.stolen*wall, off))
		for i := range leg.stepNs {
			leg.stepNs[i] -= r * leg.offNs[i]
		}
	} else {
		scaleAll(ran, leg.stepNs)
	}
	o.tr.scale(ran)
	for _, tr := range leg.threads {
		if tr != o.tr {
			tr.scale(ran)
		}
	}
	return leg
}

// checkRound runs each analyzer's leg once with the output checks on. It
// doubles as the discarded warm-up round.
func checkRound(w workload, sz sizes, cfg config, res *result) {
	for _, alg := range analyzers {
		runLeg(w, alg, sz.warm, legOpts{check: true, inject: cfg.inject}, res)
	}
}

// nominal rescales a leg's times to the nominal machine: index is how
// much slower than nominal the machine ran during the leg (see state.go).
func (l *legResult) nominal(index float64) {
	l.index = index
	l.setup = time.Duration(float64(l.setup) / index)
	l.steady = time.Duration(float64(l.steady) / index)
	scaleAll(1/index, l.stepNs)
}

// legStats are one analyzer's three end-to-end statistics over its legs:
// the median leg throughput with its quartiles, and the nearest-rank
// median and tail of the step latencies pooled over all legs. scale maps a
// leg to the factor its times are multiplied by first: 1 for the corrected
// values, the leg's index to get the measured ones back.
func legStats(legs []legResult, scale func(*legResult) float64) (tput, p50, tail e2eMetric) {
	var perLeg, lat []float64
	for i := range legs {
		l := &legs[i]
		if l.launches == 0 {
			continue
		}
		f := scale(l)
		perLeg = append(perLeg, float64(l.launches)/(l.steady.Seconds()*f))
		for _, ns := range l.stepNs {
			lat = append(lat, ns*f)
		}
	}
	q1, q3 := quartiles(perLeg)
	tput = e2eMetric{value: median(perLeg), q1: q1, q3: q3, n: len(perLeg)}
	q1, q3 = quartiles(lat)
	p50 = e2eMetric{value: quantile(lat, 0.5) / 1e6, q1: q1 / 1e6, q3: q3 / 1e6, n: len(lat)}
	p := tailPercentile(len(lat), 0.95)
	tail = e2eMetric{value: quantile(lat, p) / 1e6, q1: q1 / 1e6, q3: q3 / 1e6, n: len(lat)}
	if p != 0.95 {
		tail.note = fmt.Sprintf("p%.4g: %d samples leave fewer than %d beyond p95", 100*p, len(lat), tailBeyond)
	}
	return tput, p50, tail
}

// runUntraced measures the end-to-end metrics: the check round, then the
// workload's rounds of three short legs (raycast → warnock → paint →
// raycast …), each on a fresh system from a collected heap, stopping early
// only if the next round would overrun the budget. The reference kernels
// are read between every two legs, and each leg's times are rescaled to
// the nominal machine by the readings on either side of it.
func runUntraced(w workload, cfg config) *result {
	start := time.Now()
	sz := w.sizes(cfg.smoke)
	res := &result{workload: w.name(), metrics: make(map[string]e2eMetric)}
	probe := newStateProbe() // the check round evicts its freshly written buffer
	checkRound(w, sz, cfg, res)

	rounds := int(float64(sz.rounds) * cfg.seconds / runSeconds)
	if rounds < 1 || cfg.smoke {
		rounds = 1
	}
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	legs := make(map[string][]legResult)
	var setups, rawSetups []float64
	runtime.GC()
	state := probe.read()
	res.states = append(res.states, state)
	for r := 0; r < rounds; r++ {
		roundStart := time.Now()
		setup, rawSetup := 0.0, 0.0
		for _, alg := range analyzers {
			leg := runLeg(w, alg, sz.steps[alg], legOpts{}, res)
			runtime.GC() // the kernels and the next leg start from a collected heap
			next := probe.read()
			res.states = append(res.states, next)
			rawSetup += leg.setup.Seconds()
			leg.nominal(math.Sqrt(state.index() * next.index()))
			state = next
			setup += leg.setup.Seconds()
			legs[alg] = append(legs[alg], leg)
		}
		setups, rawSetups = append(setups, setup), append(rawSetups, rawSetup)
		res.rounds++
		if time.Now().Add(time.Since(roundStart)).After(deadline) {
			break
		}
	}

	q1, q3 := quartiles(setups)
	res.metrics["setup_s"] = e2eMetric{value: median(setups), q1: q1, q3: q3, raw: median(rawSetups), n: len(setups)}
	corrected := func(*legResult) float64 { return 1 }
	measured := func(l *legResult) float64 { return l.index }
	for _, alg := range analyzers {
		tput, p50, tail := legStats(legs[alg], corrected)
		rawTput, rawP50, rawTail := legStats(legs[alg], measured)
		tput.raw, p50.raw, tail.raw = rawTput.value, rawP50.value, rawTail.value
		res.metrics[alg+"_launches_per_s"] = tput
		res.metrics[alg+"_step_p50_ms"] = p50
		res.metrics[alg+"_step_p95_ms"] = tail
	}
	return res
}

// tracedRun is the state of one traced run, shared with the workload's
// layers method.
type tracedRun struct {
	base    time.Time
	size    sizes
	legs    map[string]*legResult
	tracers map[string]*tracer
	m       layerMetrics
	procs   []traceProc
}

// runTraced measures the per-layer metrics: after the check round, one
// traced leg per analyzer at the untraced sizes, an untraced ray-casting
// leg back to back for the tracing overhead, then the micro passes. The
// spans stay in memory until the Perfetto file is written at the end.
func runTraced(w workload, cfg config) *result {
	sz := w.sizes(cfg.smoke)
	sz.steps = sz.traced // one long leg per analyzer instead of many short ones
	res := &result{workload: w.name(), layers: make(layerMetrics)}
	checkRound(w, sz, cfg, res)

	t := &tracedRun{
		base: time.Now(), size: sz, m: res.layers,
		legs: make(map[string]*legResult), tracers: make(map[string]*tracer),
	}
	gc0, busy0 := cpuSeconds()
	var heapPeak uint64
	var allocs, bytes int64
	launches := 0
	for _, alg := range analyzers {
		runtime.GC()
		tr := newTracer(t.base)
		leg := runLeg(w, alg, sz.steps[alg], legOpts{tr: tr}, res)
		t.legs[alg], t.tracers[alg] = &leg, tr
		t.procs = append(t.procs, traceProc{name: w.name() + "/" + alg, threads: leg.threads})
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapInuse > heapPeak {
			heapPeak = ms.HeapInuse
		}
		allocs += leg.mallocs
		bytes += leg.bytes
		launches += leg.launches
	}
	gc1, busy1 := cpuSeconds()
	t.m["go.gc_cpu_share"] = div(gc1-gc0, busy1-busy0)
	t.m["go.heap_peak_mb"] = float64(heapPeak) / 1e6
	t.m["go.allocs_per_launch"] = div(float64(allocs), float64(launches))
	t.m["go.bytes_per_launch"] = div(float64(bytes), float64(launches))

	runtime.GC()
	plain := runLeg(w, "raycast", sz.steps["raycast"], legOpts{}, res)
	if traced := t.legs["raycast"]; plain.launches > 0 && traced.launches > 0 {
		t.m["trace.overhead_share"] = 1 - (float64(traced.launches)/traced.steady.Seconds())/
			(float64(plain.launches)/plain.steady.Seconds())
	}

	if res.failed == 0 {
		groups := w.spaces()
		indexPass(groups, cfg.seed, sz.microOps, t.m)
		bvhPass(groups, sz.microOps, t.m)
		if err := w.layers(t); err != nil {
			res.errs = append(res.errs, err)
		}
	}
	res.coverTime, res.coverSteps = stepCoverage(t.procs)
	path := filepath.Join(cfg.traceDir, w.name()+".trace.json")
	if err := writeTrace(path, t.procs); err != nil {
		res.errs = append(res.errs, err)
	}
	return res
}

// stepCoverage is, over every tracer of a traced run, the share of
// step-span time covered by child spans and the share of steps whose
// children cover at least coverGoal of them (the rest lost a scheduler or
// GC pause between two children).
func stepCoverage(procs []traceProc) (byTime, bySteps float64) {
	var covered, total int64
	var steps, well int
	for _, p := range procs {
		for _, t := range p.threads {
			covered += t.stepCovered
			total += t.stepTotal
			steps += t.steps
			well += t.wellCovered
		}
	}
	return div(float64(covered), float64(total)), div(float64(well), float64(steps))
}

// --- output -------------------------------------------------------------

// report prints one run's metrics as a table and, as the last line, the
// JSON object the benchmark driver reads.
func report(out io.Writer, res *result, cfg config, traced bool) {
	fmt.Fprintf(out, "visperf %s: seed %d, budget %.0f s, GOMAXPROCS %d, %s\n",
		res.workload, cfg.seed, cfg.seconds, runtime.GOMAXPROCS(0), runtime.Version())
	for _, err := range res.errs {
		fmt.Fprintf(out, "FAILED: %v\n", err)
	}
	if len(res.errs) == 0 {
		fmt.Fprintf(out, "output checks passed\n")
	}
	fmt.Fprintf(out, "hypervisor steal: median %.1f%%, worst %.1f%% of a leg's CPU time; times below are wall × (1 − steal)\n",
		100*median(res.stolen), 100*quantile(res.stolen, 1))
	if len(res.states) > 0 {
		var wide, mem, index []float64
		for _, s := range res.states {
			wide, mem, index = append(wide, s.wide), append(mem, s.mem), append(index, s.index())
		}
		fmt.Fprintf(out, "machine state over %d readings: wide kernel %.3g ns/iteration (nominal %.3g), memory kernel %.4g ns/load (nominal %.4g); slowdown index median %.3f, range %.3f–%.3f; values below are for the nominal machine, each leg's times ÷ its index\n",
			len(index), median(wide), nominalWideNs, median(mem), float64(nominalMemNs), median(index), quantile(index, 0), quantile(index, 1))
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jsonMetric)
	if traced {
		fmt.Fprintf(out, "step spans: children cover %.2f%% of step time; %.2f%% of steps are at least %.0f%% covered\n",
			100*res.coverTime, 100*res.coverSteps, 100*coverGoal)
		if res.layers["shard.s2_over_plain"] > 0 && res.layers["shard.dispatches_per_launch"] == 0 {
			fmt.Fprintf(out, "note: shard/dispatches = 0 — both atoms of the 2-shard analyzer share a home shard on this tree, so shard.s2_over_plain timed the inline path\n")
		}
		fmt.Fprintf(out, "%-32s %14s  %s\n", "per-layer metric", "value", "unit")
		for _, d := range perLayer() {
			v := res.layers[d.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			fmt.Fprintf(out, "%-32s %14.6g  %s\n", d.Name, v, d.Unit)
			metrics[d.Name] = jsonMetric{v, d.Unit}
		}
	} else {
		fmt.Fprintf(out, "%d measured rounds (+1 check round) of three legs, raycast → warnock → paint\n", res.rounds)
		fmt.Fprintf(out, "%-26s %12s  %-10s %12s %12s %12s %6s\n", "end-to-end metric", "value", "unit", "q1", "q3", "as measured", "n")
		for _, d := range endToEnd() {
			m := res.metrics[d.Name]
			fmt.Fprintf(out, "%-26s %12.6g  %-10s %12.6g %12.6g %12.6g %6d", d.Name, m.value, d.Unit, m.q1, m.q3, m.raw, m.n)
			if m.note != "" {
				fmt.Fprintf(out, "  (%s)", m.note)
			}
			fmt.Fprintln(out)
			metrics[d.Name] = jsonMetric{m.value, d.Unit}
		}
	}
	fmt.Fprintf(out, "%-26s %12.6g  %-10s (%d of %d steps)\n", "failed_share",
		div(float64(res.failed), float64(res.attempted)), "ratio", res.failed, res.attempted)
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{len(res.errs) == 0 && res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		panic(err) // a map of floats and strings always encodes
	}
	fmt.Fprintf(out, "%s\n", line)
}

// selfcheck runs two full untraced sets back to back and compares every
// end-to-end metric of every workload against its bound.
func selfcheck(out io.Writer, ws []workload, cfg config) bool {
	ok := true
	var sets [2][]*result
	for i := range sets {
		for _, w := range ws {
			res := runUntraced(w, cfg)
			report(out, res, cfg, false)
			sets[i] = append(sets[i], res)
			ok = ok && len(res.errs) == 0 && res.failed == 0
		}
	}
	fmt.Fprintf(out, "\nselfcheck: set 2 against set 1\n%-12s %-26s %12s %12s %8s %7s\n",
		"workload", "metric", "set 1", "set 2", "diff", "bound")
	for i, a := range sets[0] {
		b := sets[1][i]
		for _, d := range endToEnd() {
			va, vb := a.metrics[d.Name].value, b.metrics[d.Name].value
			diff := div(math.Abs(vb-va), va)
			verdict := ""
			if diff > d.Bound {
				verdict = "  OUT OF BOUND"
				ok = false
			}
			fmt.Fprintf(out, "%-12s %-26s %12.6g %12.6g %7.1f%% %6.0f%%%s\n",
				a.workload, d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
		}
	}
	return ok
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("visperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload: circuit, stencil, serve_batch or serve_query (default: all four)")
	seed := fs.Int64("seed", 1, "seed for everything the benchmark generates (serve programs, operand samples)")
	seconds := fs.Float64("seconds", runSeconds, "measuring budget per workload; the round count scales with it")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: untraced end-to-end run")
	self := fs.Bool("selfcheck", false, "run two untraced sets and fail if any end-to-end metric differs by more than its bound")
	smoke := fs.Bool("smoke", false, "smoke sizes: 2 steps, 1 round")
	inject := fs.String("inject", "", "corrupt a check's expectation to prove it fires: dep or snapshot")
	traceDir := fs.String("trace-dir", filepath.Join("benchmarks", "traces"), "directory for the traced run's Perfetto files")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(procs)
	cfg := config{seed: *seed, seconds: *seconds, smoke: *smoke, inject: *inject, traceDir: *traceDir}
	// One keep-alive connection per tenant: the default transport keeps
	// only two idle connections per host.
	if t, ok := http.DefaultTransport.(*http.Transport); ok && runtime.GOMAXPROCS(0) > t.MaxIdleConnsPerHost {
		t.MaxIdleConnsPerHost = runtime.GOMAXPROCS(0)
	}
	ws := workloads(cfg.seed)
	if *printManifest {
		b, err := manifest(ws)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if _, err := stdout.Write(b); err != nil {
			return 1
		}
		return 0
	}
	if *name != "" {
		var one []workload
		for _, w := range ws {
			if w.name() == *name {
				one = append(one, w)
			}
		}
		if one == nil {
			fmt.Fprintf(stderr, "visperf: unknown workload %q\n", *name)
			return 2
		}
		ws = one
	}
	if *self {
		if !selfcheck(stdout, ws, cfg) {
			return 1
		}
		return 0
	}
	code := 0
	for _, w := range ws {
		var res *result
		if *trace != 0 {
			res = runTraced(w, cfg)
		} else {
			res = runUntraced(w, cfg)
		}
		report(stdout, res, cfg, *trace != 0)
		if len(res.errs) > 0 || res.failed > 0 {
			code = 1
		}
	}
	return code
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
