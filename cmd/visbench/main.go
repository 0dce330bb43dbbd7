// Command visbench regenerates the paper's evaluation (§8): for each
// benchmark application it sweeps machine sizes and the five
// algorithm/DCR configurations, printing initialization time
// (Figures 12-14) and weak-scaling throughput per node (Figures 15-17),
// or the raw TSV rows of the artifact's parse_results.py.
//
// With -metrics-out it additionally dumps every experiment cell's full
// metrics-registry snapshot — analyzer operation counts, cluster message
// tallies, per-launch cost histograms — as a deterministic JSON array.
//
// Usage:
//
//	visbench [-app stencil|circuit|pennant|all] [-metric init|weak|all]
//	         [-max-nodes 512] [-iters 3] [-format figure|tsv] [-reps 1]
//	         [-stats] [-metrics-out cells.json] [-autotrace] [-list]
//
// -autotrace additionally measures every configuration with automatic
// trace memoization enabled (online repeat detection over the launch
// stream, no Begin/End brackets in the app) — the tracing ablation the
// paper leaves out (§8). The extra rows and record cells carry a "_auto"
// system-name suffix; the schema is unchanged.
//
// -json switches to benchmark-record collection: cells run serially
// (wall-clock timing, ReadMemStats allocation deltas, and analysis-span
// latency quantiles are process-global measurements) and the pinned
// VISBENCH1 record lands in the named file ("-" for stdout) for
// cmd/benchdiff and the committed BENCH_<n>.json trajectory. -profile-out
// additionally captures per-cell pprof CPU and heap profiles:
//
//	visbench -json BENCH_8.json [-profile-out profiles/]
//	         [-app all] [-max-nodes 32] [-iters 3] [-reps 3]
//
// -list prints the applications (with the paper figures they reproduce),
// coherence algorithms, and system configurations, all drawn from the
// harness's application table and the algorithm registry.
//
// -chaos switches to the fault-injection crosscheck: each seed runs a
// randomized task stream through all four analyzers and a simulated
// cluster under an active fault plan, verifies the results against the
// sequential ground truth, then replays the seed from its plan string and
// requires a byte-identical flight-recorder dump:
//
//	visbench -chaos [-seeds 20] [-chaos-seed 1] [-chaos-plan "seed=1;..."]
//	         [-chaos-tasks 24] [-chaos-nodes 4]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"

	"visibility/internal/algo"
	"visibility/internal/bench"
	"visibility/internal/fault"
	"visibility/internal/harness"
)

func main() {
	appFlag := flag.String("app", "all", "application: stencil, circuit, pennant, or all")
	list := flag.Bool("list", false, "list applications, figures, and algorithms, then exit")
	metric := flag.String("metric", "all", "metric: init (Figs 12-14), weak (Figs 15-17), or all")
	maxNodes := flag.Int("max-nodes", 512, "largest simulated node count (sweeps powers of two)")
	iters := flag.Int("iters", 3, "steady-state iterations to time")
	format := flag.String("format", "figure", "output format: figure or tsv")
	reps := flag.Int("reps", 1, "repetition rows in tsv output")
	stats := flag.Bool("stats", false, "print analyzer operation counts per cell")
	autotrace := flag.Bool("autotrace", false, "additionally measure every configuration with automatic trace memoization (\"<system>_auto\" rows/cells)")
	metricsOut := flag.String("metrics-out", "", "write per-cell metrics snapshots as JSON to this file (\"-\" for stdout)")
	jsonOut := flag.String("json", "", "collect a VISBENCH1 benchmark record into this file (\"-\" for stdout) instead of printing figures")
	profileOut := flag.String("profile-out", "", "with -json: write per-cell pprof CPU+heap profiles into this directory")
	chaos := flag.Bool("chaos", false, "run the fault-injection chaos crosscheck instead of the benchmarks")
	seeds := flag.Int("seeds", 20, "with -chaos: number of consecutive seeds to run")
	chaosSeed := flag.Int64("chaos-seed", 1, "with -chaos: first workload seed")
	chaosPlan := flag.String("chaos-plan", "", "with -chaos: fault plan string (default: per-seed mixed plan)")
	chaosTasks := flag.Int("chaos-tasks", 24, "with -chaos: tasks per stream")
	chaosNodes := flag.Int("chaos-nodes", 4, "with -chaos: simulated cluster size for the distributed leg (0 disables)")
	flag.Parse()

	if *list {
		printInventory()
		return
	}
	if *chaos {
		os.Exit(runChaos(*chaosSeed, *seeds, *chaosPlan, *chaosTasks, *chaosNodes))
	}

	var selected []harness.App
	if *appFlag == "all" {
		for _, a := range harness.Apps {
			if a.InAll {
				selected = append(selected, a)
			}
		}
	} else if a, err := harness.FindApp(*appFlag); err == nil {
		selected = []harness.App{a}
	} else {
		fmt.Fprintf(os.Stderr, "visbench: %v\n", err)
		os.Exit(2)
	}
	if *jsonOut != "" {
		names := make([]string, len(selected))
		for i, a := range selected {
			names[i] = a.Name
		}
		os.Exit(runBenchRecord(*jsonOut, *profileOut, names, *maxNodes, *iters, *reps, *autotrace))
	}
	if *profileOut != "" {
		fmt.Fprintln(os.Stderr, "visbench: -profile-out requires -json (profiles are captured per benchmark-record cell)")
		os.Exit(2)
	}
	var allResults []*harness.Result
	for _, app := range selected {
		name := app.Name
		base := harness.Config{App: app.Build, AppName: name, MeasureIters: *iters}
		results, err := harness.Sweep(base, *maxNodes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "visbench: %v\n", err)
			os.Exit(1)
		}
		if *autotrace {
			base.AutoTrace = true
			autoResults, err := harness.Sweep(base, *maxNodes)
			if err != nil {
				fmt.Fprintf(os.Stderr, "visbench: %v\n", err)
				os.Exit(1)
			}
			results = append(results, autoResults...)
		}
		allResults = append(allResults, results...)
		switch *format {
		case "tsv":
			fmt.Printf("## %s\n", name)
			if err := harness.WriteTSV(os.Stdout, results, *reps); err != nil {
				fmt.Fprintf(os.Stderr, "visbench: %v\n", err)
				os.Exit(1)
			}
		default:
			for _, m := range []struct{ name, figure string }{{"init", app.Init}, {"weak", app.Weak}} {
				if *metric != "all" && *metric != m.name {
					continue
				}
				fmt.Printf("\n== %s: %s ==\n", m.figure, name)
				if err := harness.WriteFigure(os.Stdout, results, m.name); err != nil {
					fmt.Fprintf(os.Stderr, "visbench: %v\n", err)
					os.Exit(1)
				}
			}
		}
		if *stats {
			fmt.Printf("\n-- %s analyzer operation counts --\n", name)
			fmt.Printf("%-16s %6s %12s %12s %10s %10s %10s %10s %8s %8s\n",
				"system", "nodes", "entriesScan", "overlapTest", "views", "setsMade", "coalesced", "bvh", "gpu%", "util%")
			for _, r := range results {
				fmt.Printf("%-16s %6d %12d %12d %10d %10d %10d %10d %8.1f %8.1f\n",
					r.System, r.Nodes, r.Stats.EntriesScanned, r.Stats.OverlapTests,
					r.Stats.ViewsCreated, r.Stats.SetsCreated, r.Stats.SetsCoalesced, r.Stats.BVHVisited,
					100*r.ExecUtilization, 100*r.UtilUtilization)
			}
		}
	}

	if *metricsOut != "" {
		var w io.Writer = os.Stdout
		if *metricsOut != "-" {
			f, err := os.Create(*metricsOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "visbench: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		if err := harness.WriteMetricsJSON(w, allResults); err != nil {
			fmt.Fprintf(os.Stderr, "visbench: %v\n", err)
			os.Exit(1)
		}
	}
}

// runBenchRecord collects a pinned VISBENCH1 benchmark record over the
// named apps and writes it to out ("-" for stdout), optionally capturing
// per-cell pprof profiles. Returns the process exit code.
func runBenchRecord(out, profileDir string, names []string, maxNodes, iters, reps int, autotrace bool) int {
	rec, err := bench.Collect(bench.Options{
		Apps: names, MaxNodes: maxNodes, Iters: iters, Reps: reps,
		Commit: gitCommit(), ProfileDir: profileDir, AutoTrace: autotrace,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "visbench: %v\n", err)
		return 1
	}
	if out == "-" {
		if err := rec.Encode(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "visbench: %v\n", err)
			return 1
		}
		return 0
	}
	if err := bench.WriteFile(out, rec); err != nil {
		fmt.Fprintf(os.Stderr, "visbench: %v\n", err)
		return 1
	}
	fmt.Printf("wrote %d cells to %s (commit %s, reps %d, aggregate %.0f launches/sec)\n",
		len(rec.Cells), out, rec.Meta.Commit, rec.Meta.Reps, rec.AggregateLaunchesPerSec())
	return 0
}

// gitCommit names the measured code in record metadata: the short commit
// hash, or "unknown" outside a git checkout.
func gitCommit() string {
	hash, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(hash))
}

// runChaos drives the chaos crosscheck over n consecutive seeds. Each
// seed runs twice — once fresh and once replayed from the first run's
// plan string — and the two flight-recorder dumps must match byte for
// byte; a verification failure prints the plan string as the complete
// reproduction recipe. Returns the process exit code.
func runChaos(first int64, n int, plan string, tasks, nodes int) int {
	if plan != "" {
		if _, err := fault.Parse(plan); err != nil {
			fmt.Fprintf(os.Stderr, "visbench: %v\n", err)
			return 2
		}
	}
	fmt.Printf("%-8s %-8s %-8s %-10s %-12s %s\n", "seed", "events", "fires", "makespan", "replay", "plan")
	failed := 0
	for i := 0; i < n; i++ {
		seed := first + int64(i)
		cfg := harness.ChaosConfig{Seed: seed, Plan: plan, Tasks: tasks, Nodes: nodes}
		r, err := harness.RunChaos(cfg)
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "visbench: %v\n", err)
			if r != nil {
				fmt.Fprintf(os.Stderr, "visbench: reproduce with: visbench -chaos -seeds 1 -chaos-seed %d -chaos-plan %q\n", r.Seed, r.Plan)
			}
			continue
		}
		// Replay from the report's own plan string; the dump must not move.
		r2, err := harness.RunChaos(harness.ChaosConfig{Seed: r.Seed, Plan: r.Plan, Tasks: tasks, Nodes: nodes})
		replay := "identical"
		if err != nil {
			failed++
			replay = "FAILED: " + err.Error()
		} else if !bytes.Equal(r.Dump, r2.Dump) {
			failed++
			replay = fmt.Sprintf("DIVERGED (%d vs %d bytes)", len(r.Dump), len(r2.Dump))
		}
		var fires int64
		for _, c := range r.Fires {
			fires += c
		}
		fmt.Printf("%-8d %-8d %-8d %-10.3g %-12s %s\n", r.Seed, r.Events, fires, r.Makespan, replay, r.Plan)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "visbench: %d of %d chaos seeds failed\n", failed, n)
		return 1
	}
	fmt.Printf("all %d chaos seeds verified and replayed byte-identically\n", n)
	return 0
}

// printInventory enumerates everything the harness can run, pulled from
// the harness's tables and the algorithm registry rather than hand-kept
// lists: the applications with the paper figures they reproduce, the
// coherence algorithms, and the paper's five system configurations.
func printInventory() {
	fmt.Println("applications:")
	for _, name := range harness.AppNames() {
		a, _ := harness.FindApp(name)
		fmt.Printf("  %-16s init=%-24s weak=%s\n", name, a.Init, a.Weak)
	}
	fmt.Println("algorithms:")
	for _, name := range algo.Names() {
		fmt.Printf("  %s\n", name)
	}
	fmt.Println("systems (paper configurations):")
	for _, c := range harness.PaperConfigs() {
		fmt.Printf("  %s\n", harness.SystemName(c.Algorithm, c.DCR))
	}
}
