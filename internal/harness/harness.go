// Package harness runs the paper's experiments (§8): it instantiates a
// benchmark application at a machine size, drives one of the coherence
// algorithms over the simulated cluster with or without dynamic control
// replication, and measures the two quantities the paper plots for every
// application — initialization time (application start through the end of
// the first main-loop iteration, Figures 12-14) and steady-state weak
// scaling throughput per node (Figures 15-17). Output formats match the
// artifact's parse_results.py TSV.
package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"visibility/internal/algo"
	"visibility/internal/apps"
	"visibility/internal/apps/circuit"
	"visibility/internal/apps/pennant"
	"visibility/internal/apps/stencil"
	"visibility/internal/cluster"
	"visibility/internal/core"
	"visibility/internal/dist"
	"visibility/internal/obs"
	"visibility/internal/region"
)

// App is one application the harness runs.
type App struct {
	Name  string
	Build apps.Builder
	// Init and Weak name the paper figures that plot the application's
	// initialization time and weak-scaling throughput.
	Init, Weak string
}

// Apps is the one table of applications, in the paper's figure order:
// visbench (-app, -list), vistrace and bench.Collect all read it.
var Apps = []App{
	{Name: "stencil", Build: stencil.New, Init: "Figure 12", Weak: "Figure 15"},
	{Name: "circuit", Build: circuit.New, Init: "Figure 13", Weak: "Figure 16"},
	{Name: "pennant", Build: pennant.New, Init: "Figure 14", Weak: "Figure 17"},
}

// FindApp returns the table entry called name; the error lists the
// table's names.
func FindApp(name string) (App, error) {
	for _, a := range Apps {
		if a.Name == name {
			return a, nil
		}
	}
	return App{}, fmt.Errorf("unknown app %q (have %v)", name, AppNames())
}

// AppNames returns the table's names, sorted.
func AppNames() []string {
	names := make([]string, len(Apps))
	for i, a := range Apps {
		names[i] = a.Name
	}
	sort.Strings(names)
	return names
}

// Config selects one experiment cell.
type Config struct {
	App       apps.Builder
	AppName   string
	Algorithm string // algo registry name
	DCR       bool
	Nodes     int
	// MeasureIters is the number of steady-state iterations timed after
	// the initialization iteration. Zero selects a default of 3; a
	// negative count is an error.
	MeasureIters int
	// AutoTrace enables automatic trace memoization (Yadav et al.): no
	// brackets are emitted at all — the runtime detects the repeating
	// iteration structure online and replays it. The paper disables
	// tracing to measure the coherence algorithms themselves (§8); enabling
	// it here measures how much of the steady-state gap tracing recovers.
	// Three extra warm-up iterations are excluded from the timed window
	// (one for the detector to see a full repetition, two to record), so
	// the measured regime is steady-state replay.
	AutoTrace bool
	// TraceOut, when non-nil, receives the cell's virtual-time schedule
	// (one process per simulated node) after the run; the caller may add
	// its own tracks before writing it. The schedule contains only
	// virtual-time events, so identical configurations export
	// byte-identical traces.
	TraceOut *obs.TraceWriter
	// Spans, when non-nil, receives one wall-clock span per analyzed
	// launch.
	Spans *obs.Buffer
}

// Result is one measured experiment cell.
type Result struct {
	System            string // e.g. "raycast_dcr", matching the artifact naming
	App               string
	Nodes             int
	InitTime          float64 // seconds, Figures 12-14
	IterTime          float64 // seconds per steady-state iteration
	ThroughputPerNode float64 // units/s/node, Figures 15-17
	UnitName          string
	Launches          int
	Stats             core.Stats
	Messages          int64
	MessageBytes      int64
	// ExecUtilization and UtilUtilization are the mean busy fractions of
	// the execution (GPU) and utility (analysis) processors over the run.
	ExecUtilization float64
	UtilUtilization float64
	// Metrics is the cell's full registry snapshot: analyzer operation
	// counts, cluster message tallies, per-launch cost histograms, and
	// (when autotracing) trace outcomes, all under hierarchical names.
	Metrics obs.Snapshot
}

// SystemName returns the artifact-style configuration name; a cell's
// wrapper stack appends algo.Spec.Suffix to it (Result.System).
func SystemName(algorithm string, dcr bool) string {
	if dcr {
		return algorithm + "_dcr"
	}
	return algorithm + "_nodcr"
}

// Run executes one experiment cell.
func Run(cfg Config) (*Result, error) {
	spec, err := algo.Spec{Algorithm: cfg.Algorithm, AutoTrace: cfg.AutoTrace}.Check()
	if err != nil {
		return nil, err
	}
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("harness: invalid node count %d", cfg.Nodes)
	}
	if cfg.MeasureIters < 0 {
		return nil, fmt.Errorf("harness: invalid iteration count %d", cfg.MeasureIters)
	}
	iters := cfg.MeasureIters
	if iters == 0 {
		iters = 3
	}

	inst := cfg.App(cfg.Nodes)
	// One registry per cell: the machine, the driver, the analyzer, and
	// the tracer all publish into it, and the result carries one snapshot.
	reg := obs.NewRegistry()
	clusterCfg := cluster.DefaultConfig(cfg.Nodes)
	clusterCfg.Metrics = reg
	machine := cluster.New(clusterCfg)
	if cfg.TraceOut != nil {
		machine.EnableTracing()
	}
	owner := dist.OwnerByPartition(inst.Owned, cfg.Nodes)

	distCfg := dist.DefaultConfig(cfg.DCR)
	distCfg.Options = core.Options{Metrics: reg, Spans: cfg.Spans}
	driver := dist.New(machine, inst.Tree, func(tree *region.Tree, opts core.Options) core.Analyzer {
		return spec.Build(tree, opts).Analyzer
	}, owner, distCfg)
	stream := core.NewStream(inst.Tree)

	mapper := dist.OwnerMapper{}
	launches := 0
	emit := func(iter int) {
		for _, l := range inst.Emit(stream, iter) {
			driver.Launch(l.Task, mapper.Place(l.Task, l.Node, cfg.Nodes), l.Duration)
			launches++
		}
	}

	// Initialization phase: application setup plus everything through the
	// end of the first main-loop iteration (§8).
	if inst.EmitInit != nil {
		for _, l := range inst.EmitInit(stream) {
			driver.Launch(l.Task, mapper.Place(l.Task, l.Node, cfg.Nodes), l.Duration)
			launches++
		}
	}
	emit(0)
	initTime := driver.Barrier()

	// Steady state. With automatic tracing, three iterations are excluded
	// from the timed window so the replayed regime is what is measured
	// (Legion measures traced steady state the same way): the detector
	// commits a candidate once it has seen two full repetitions (iteration
	// 0 and the first warm-up), and the second and third warm-ups record.
	warm := 0
	if cfg.AutoTrace {
		warm = 3
	}
	for k := 0; k < warm; k++ {
		emit(1 + k)
	}
	if warm > 0 {
		initTime = driver.Barrier()
	}
	first := 1 + warm
	for k := 0; k < iters; k++ {
		emit(first + k)
	}
	total := driver.Barrier()
	iterTime := (total - initTime) / float64(iters)

	msgs, bytes := machine.Messages()
	var execBusy, utilBusy float64
	for n := 0; n < cfg.Nodes; n++ {
		execBusy += machine.NodeBusy(n)
		utilBusy += machine.UtilBusy(n)
	}
	if cfg.TraceOut != nil {
		machine.ExportTrace(cfg.TraceOut)
	}
	span := total * float64(cfg.Nodes)
	return &Result{
		System:            SystemName(spec.Algorithm, cfg.DCR) + spec.Suffix(),
		App:               cfg.AppName,
		Nodes:             cfg.Nodes,
		InitTime:          initTime,
		IterTime:          iterTime,
		ThroughputPerNode: inst.UnitsPerNode / iterTime,
		UnitName:          inst.UnitName,
		Launches:          launches,
		Stats:             *driver.Analyzer().Stats(),
		Messages:          msgs,
		MessageBytes:      bytes,
		ExecUtilization:   execBusy / span,
		UtilUtilization:   utilBusy / span,
		Metrics:           reg.Snapshot(),
	}, nil
}

// WriteMetricsJSON writes one registry snapshot per experiment cell as an
// indented JSON array, in result order. Cells and keys are emitted
// deterministically, so identical runs are byte-identical.
func WriteMetricsJSON(w io.Writer, results []*Result) error {
	type cell struct {
		System  string       `json:"system"`
		App     string       `json:"app"`
		Nodes   int          `json:"nodes"`
		Metrics obs.Snapshot `json:"metrics"`
	}
	cells := make([]cell, 0, len(results))
	for _, r := range results {
		cells = append(cells, cell{System: r.System, App: r.App, Nodes: r.Nodes, Metrics: r.Metrics})
	}
	b, err := json.MarshalIndent(cells, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// PaperConfigs returns the five configurations of every figure in §8:
// ray casting and Warnock's algorithm each with and without DCR, and the
// painter's algorithm without DCR (its implementation predates a stable
// DCR, as the paper notes).
func PaperConfigs() []struct {
	Algorithm string
	DCR       bool
} {
	return []struct {
		Algorithm string
		DCR       bool
	}{
		{"raycast", true},
		{"raycast", false},
		{"warnock", true},
		{"warnock", false},
		{"paint", false},
	}
}

// NodeSweep returns the power-of-two node counts of the paper's plots up
// to max (1..512 on Piz Daint).
func NodeSweep(max int) []int {
	var out []int
	for n := 1; n <= max; n *= 2 {
		out = append(out, n)
	}
	return out
}

// Sweep runs base under every paper configuration over the power-of-two
// node sweep up to maxNodes: base supplies the application, the timed
// iterations and the wrapper stack, and Sweep fills in Algorithm, DCR and
// Nodes. The simulation is deterministic, so each cell runs once. Cells
// are independent simulations, so they run in parallel across the host's
// CPUs; results are returned in deterministic (configuration-major) order.
func Sweep(base Config, maxNodes int) ([]*Result, error) {
	var cells []Config
	for _, pc := range PaperConfigs() {
		for _, n := range NodeSweep(maxNodes) {
			cell := base
			cell.Algorithm, cell.DCR, cell.Nodes = pc.Algorithm, pc.DCR, n
			cells = append(cells, cell)
		}
	}
	out := make([]*Result, len(cells))
	errs := make([]error, len(cells))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(cells) {
		workers = len(cells)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				out[i], errs[i] = Run(cells[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// WriteTSV writes results in the artifact's parse_results.py format:
// system, nodes, procs_per_node, rep, init_time, elapsed_time. The
// simulation is deterministic, so reps repeats identical rows the way the
// artifact's five repetitions appear for a stable run.
func WriteTSV(w io.Writer, results []*Result, reps int) error {
	if reps < 1 {
		reps = 1
	}
	if _, err := fmt.Fprintln(w, "system\tnodes\tprocs_per_node\trep\tinit_time\telapsed_time"); err != nil {
		return err
	}
	for _, r := range results {
		for rep := 0; rep < reps; rep++ {
			if _, err := fmt.Fprintf(w, "%s\t%d\t1\t%d\t%.6f\t%.6f\n",
				r.System, r.Nodes, rep, r.InitTime, r.IterTime); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteFigure writes one paper figure as aligned columns: one row per node
// count, one column per configuration. metric selects "init"
// (Figures 12-14) or "weak" (Figures 15-17).
func WriteFigure(w io.Writer, results []*Result, metric string) error {
	var order []string
	for _, suffix := range []string{"", algo.Spec{AutoTrace: true}.Suffix()} {
		for _, pc := range PaperConfigs() {
			order = append(order, SystemName(pc.Algorithm, pc.DCR)+suffix)
		}
	}
	byCell := make(map[string]map[int]*Result)
	nodesSet := make(map[int]bool)
	unit := ""
	for _, r := range results {
		if byCell[r.System] == nil {
			byCell[r.System] = make(map[int]*Result)
		}
		byCell[r.System][r.Nodes] = r
		nodesSet[r.Nodes] = true
		unit = r.UnitName
	}
	var nodes []int
	for n := 1; n <= 1<<20; n *= 2 {
		if nodesSet[n] {
			nodes = append(nodes, n)
		}
	}

	label := "init time (s)"
	if metric == "weak" {
		label = fmt.Sprintf("throughput per node (%s/s)", unit)
	}
	pw := &printer{w: w}
	pw.printf("# %s\n", label)
	pw.printf("%-7s", "nodes")
	for _, sys := range order {
		if byCell[sys] != nil {
			pw.printf(" %14s", strings.ReplaceAll(sys, "_", ","))
		}
	}
	pw.printf("\n")
	for _, n := range nodes {
		pw.printf("%-7d", n)
		for _, sys := range order {
			cell := byCell[sys]
			if cell == nil {
				continue
			}
			r, ok := cell[n]
			if !ok {
				pw.printf(" %14s", "-")
				continue
			}
			v := r.InitTime
			if metric == "weak" {
				v = r.ThroughputPerNode
			}
			pw.printf(" %14.4g", v)
		}
		pw.printf("\n")
	}
	return pw.err
}

// printer accumulates formatted output to an io.Writer, holding the first
// write error so report generators can check once at the end instead of
// after every line.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}
