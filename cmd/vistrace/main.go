// Command vistrace inspects what the dynamic analyses see: it runs a
// benchmark application's task stream (at a small machine size) through a
// chosen coherence algorithm and dumps the discovered dependence graph —
// as text or Graphviz DOT — together with parallelism statistics and the
// analyzer's operation counters. It is the debugging lens for answers like
// "why did these two tasks serialize?".
//
// With -trace-out it additionally runs the application as one harness cell
// (harness.Run, DCR on, -iters timed iterations) and writes a Chrome
// trace-event (Perfetto-loadable) JSON timeline: one track per simulated
// node (exec and util processors), every work item as a duration event,
// every coherence message as a flow arrow, and the analyzer's wall-clock
// spans, one per analyzed launch, as a separate process.
//
// Usage:
//
//	vistrace [-app circuit] [-algo raycast] [-nodes 4] [-iters 2]
//	         [-format text|dot] [-exact] [-trace-out trace.json]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"visibility/internal/algo"
	"visibility/internal/apps"
	"visibility/internal/core"
	"visibility/internal/field"
	"visibility/internal/graph"
	"visibility/internal/harness"
	"visibility/internal/index"
	"visibility/internal/obs"
)

func main() {
	appFlag := flag.String("app", "circuit", "application: "+strings.Join(harness.AppNames(), ", "))
	algoFlag := flag.String("algo", "raycast", "algorithm: "+strings.Join(algo.Names(), ", "))
	nodes := flag.Int("nodes", 4, "simulated machine size")
	iters := flag.Int("iters", 2, "iterations of the main loop")
	format := flag.String("format", "text", "output: text or dot")
	exact := flag.Bool("exact", false, "also run the exact O(n²) reference and report precision")
	dumpSets := flag.Bool("dump-sets", false, "dump the live equivalence sets per field (warnock/raycast)")
	dumpTree := flag.Bool("dump-tree", false, "print the application's region tree (Figure 2(c) style)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON timeline of the simulated run to this file")
	flag.Parse()

	// Validate every flag up front: a typo or an empty machine must be a
	// usage error, not a silent fall-through to the default behavior.
	if *nodes < 1 || *iters < 1 {
		fmt.Fprintf(os.Stderr, "vistrace: -nodes and -iters must be at least 1 (have %d, %d)\n", *nodes, *iters)
		os.Exit(2)
	}
	app, err := harness.FindApp(*appFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vistrace: %v\n", err)
		os.Exit(2)
	}
	newAn, err := algo.Lookup(*algoFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vistrace: %v\n", err)
		os.Exit(2)
	}
	switch *format {
	case "text", "dot":
	default:
		fmt.Fprintf(os.Stderr, "vistrace: unknown format %q (have text, dot)\n", *format)
		os.Exit(2)
	}

	inst := app.Build(*nodes)
	if *dumpTree {
		if err := inst.Tree.Print(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "vistrace: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
	}
	an := newAn(inst.Tree, core.Options{})
	stream := core.NewStream(inst.Tree)
	// found is what the analyzer reported per task; g's rows add the
	// stream's future edges. Each launch weighs 1, so a label's finish is
	// its level plus one and g.Length is the number of levels.
	var found [][]int
	var g graph.Graph
	for it := 0; it < *iters; it++ {
		for _, l := range inst.Emit(stream, it) {
			deps := an.Analyze(l.Task).Deps
			found = append(found, deps)
			g.Add(1, core.Row(l.Task, deps))
		}
	}

	switch *format {
	case "dot":
		if err := g.WriteDOT(os.Stdout, stream.Tasks, nil); err != nil {
			fmt.Fprintf(os.Stderr, "vistrace: %v\n", err)
			os.Exit(1)
		}
	default:
		fmt.Printf("%s on %s, %d nodes, %d iterations: %d launches\n\n",
			*algoFlag, *appFlag, *nodes, *iters, len(stream.Tasks))
		for _, t := range stream.Tasks {
			fmt.Printf("%-28s deps=%v\n", t.String(), found[t.ID])
		}
	}

	// Parallelism summary: width of each antichain level of the graph.
	widths := make([]int, int(g.Length))
	for _, l := range g.Labels {
		widths[int(l.Finish)-1]++
	}
	fmt.Printf("\ncritical path: %d levels for %d tasks (%d dependence edges)\n",
		len(widths), len(stream.Tasks), g.Edges)
	fmt.Printf("level widths (parallelism): %v — average parallelism %.1f\n",
		widths, g.Work/g.Length)

	if *exact {
		// The exact reference orders future consumers after their
		// producers too, so compare against the dependence rows, which
		// hold the stream's future edges alongside the analyzer's.
		ex := core.ExactDeps(stream.Tasks)
		if err := core.CheckSound(g.Rows, ex); err != nil {
			fmt.Printf("SOUNDNESS VIOLATION: %v\n", err)
			os.Exit(1)
		}
		exEdges := 0
		for _, ds := range ex {
			exEdges += len(ds)
		}
		fmt.Printf("soundness: ok (all %d exact interferences preserved; %d spurious direct edges)\n",
			exEdges, core.CheckPrecise(g.Rows, ex))
	}

	st := an.Stats()
	fmt.Printf("\nanalyzer counters: entriesScanned=%d overlapTests=%d views=%d setsCreated=%d coalesced=%d bvhVisited=%d\n",
		st.EntriesScanned, st.OverlapTests, st.ViewsCreated, st.SetsCreated, st.SetsCoalesced, st.BVHVisited)

	if *traceOut != "" {
		if err := exportTrace(app, *algoFlag, *nodes, *iters, *traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "vistrace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote Chrome trace-event JSON to %s (load it in Perfetto or chrome://tracing)\n", *traceOut)
	}

	if *dumpSets {
		dumpEquivalenceSets(an, inst, *algoFlag)
	}
}

// exportTrace runs the application through harness.Run (DCR on,
// owner-computes placement, the paper's default configuration; iters
// timed iterations after the initialization iteration) and writes the
// resulting timeline as Chrome trace-event JSON: virtual-time exec/util
// tracks per node with message flow arrows, plus the analyzer's wall-clock
// spans, one per analyzed launch, as an extra process.
func exportTrace(app harness.App, algorithm string, nodes, iters int, path string) error {
	tw := obs.NewTraceWriter()
	spans := obs.NewBuffer(1 << 16)
	if _, err := harness.Run(harness.Config{
		App: app.Build, AppName: app.Name, Algorithm: algorithm, DCR: true,
		Nodes: nodes, MeasureIters: iters, TraceOut: tw, Spans: spans,
	}); err != nil {
		return err
	}
	tw.ProcessName(nodes, "analyzer (wall clock)")
	tw.ThreadName(nodes, 0, "analyzed launches")
	tw.Spans(nodes, 0, spans.Snapshot())

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tw.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func dumpEquivalenceSets(an core.Analyzer, inst *apps.Instance, algoName string) {
	type setDumper interface {
		SetSpaces(f field.ID) []index.Space
		EquivalenceSets(f field.ID) int
	}
	d, ok := an.(setDumper)
	if !ok {
		fmt.Printf("\n(%s does not maintain equivalence sets)\n", algoName)
		return
	}
	fmt.Println("\nlive equivalence sets:")
	for f := 0; f < inst.Tree.Fields.Len(); f++ {
		id := field.ID(f)
		fmt.Printf("  field %-10s %d sets\n", inst.Tree.Fields.Name(id), d.EquivalenceSets(id))
		for _, sp := range d.SetSpaces(id) {
			fmt.Printf("    %v (|%d|)\n", sp, sp.Volume())
		}
	}
}
