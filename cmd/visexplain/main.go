// Command visexplain interrogates a running visserve instance for
// dependence provenance and weighted critical-path profiles. Two
// questions it answers:
//
//	visexplain why A B        # why must task B wait on task A?
//	visexplain critpath       # where does the makespan go?
//
// "why" prints the provenance of every dependence edge from A into B —
// the interfering requirement pair (regions, field, privileges,
// overlapping rectangle) or the future edge — plus the mustPrecede
// verdict (false at once when every ancestor of B lies above A, from B's
// graph.Label.Low; otherwise a backward search of the graph, windowed to
// the ids between A and B). "critpath" prints the weighted critical path
// under deterministic virtual time (requirements + points touched) and
// the top-k bottleneck tasks; -dot renders the full DAG with the critical
// path highlighted instead.
//
// By default the tool queries an existing session (-session, or the
// first live one). -graphsim N instead creates a fresh session, submits
// N iterations of the paper's Figure 1 graphsim workload, queries that,
// and deletes it on exit (-keep retains it). All output is derived from
// deterministic virtual quantities, so repeated runs over the same
// workload are byte-identical.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"visibility"
	"visibility/internal/server/client"
	"visibility/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "visexplain:", err)
		os.Exit(1)
	}
}

// say writes report output; a broken pipe mid-report is not actionable,
// so the error is dropped here, in exactly one place.
func say(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

const usage = `usage: visexplain [flags] why <src> <dst>
       visexplain [flags] critpath [-k n] [-dot]`

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("visexplain", flag.ContinueOnError)
	target := fs.String("target", "http://127.0.0.1:8080", "visserve URL to query")
	sessionID := fs.String("session", "", "session id to query (default: first live session)")
	region := fs.String("region", "", "root region tree to query (default: server picks first by name)")
	graphsim := fs.Int("graphsim", 0, "create a fresh session, submit N graphsim iterations, query it")
	keep := fs.Bool("keep", false, "with -graphsim: keep the demo session instead of deleting it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("missing subcommand\n%s", usage)
	}

	c := client.New(*target)
	sess, cleanup, err := pickSession(c, *sessionID, *graphsim, *keep)
	if err != nil {
		return err
	}
	defer cleanup()

	switch rest[0] {
	case "why":
		return runWhy(sess, *region, rest[1:], stdout)
	case "critpath":
		return runCritPath(sess, *region, rest[1:], stdout)
	default:
		return fmt.Errorf("unknown subcommand %q\n%s", rest[0], usage)
	}
}

// pickSession resolves the session to query: an explicit -session id, a
// fresh -graphsim demo session, or the first live session on the server.
// The returned cleanup deletes the demo session unless -keep was given.
func pickSession(c *client.Client, id string, graphsim int, keep bool) (*client.Session, func(), error) {
	nop := func() {}
	if graphsim > 0 {
		sess, err := c.CreateSession(client.SessionConfig{})
		if err != nil {
			return nil, nop, fmt.Errorf("creating demo session: %w", err)
		}
		if err := sess.Submit(wire.ExampleGraphsim(graphsim)); err != nil {
			_ = sess.Close()
			return nil, nop, fmt.Errorf("submitting graphsim workload: %w", err)
		}
		if keep {
			return sess, nop, nil
		}
		return sess, func() { _ = sess.Close() }, nil
	}
	if id != "" {
		return c.Session(id), nop, nil
	}
	infos, err := c.Sessions()
	if err != nil {
		return nil, nop, err
	}
	if len(infos) == 0 {
		return nil, nop, fmt.Errorf("no live sessions (use -graphsim N for a demo workload)")
	}
	return c.Session(infos[0].ID), nop, nil
}

// runWhy prints the provenance of every dependence edge src -> dst and
// the mustPrecede verdict for the pair.
func runWhy(sess *client.Session, region string, args []string, stdout io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("why wants exactly two task ids\n%s", usage)
	}
	src, err := strconv.Atoi(args[0])
	if err != nil {
		return fmt.Errorf("invalid src task %q", args[0])
	}
	dst, err := strconv.Atoi(args[1])
	if err != nil {
		return fmt.Errorf("invalid dst task %q", args[1])
	}
	res, err := sess.Why(region, src, dst)
	if err != nil {
		return err
	}
	ex := res.Explain
	verdict := "MAY run in either order (no dependence path)"
	if res.MustPrecede {
		verdict = "MUST precede in every legal execution"
	}
	say(stdout, "task %d (%s) -> task %d (%s): %s\n", src, srcName(ex, src), dst, ex.Name, verdict)
	if len(ex.Edges) == 0 {
		say(stdout, "  no direct dependence edge %d -> %d (any ordering is transitive)\n", src, dst)
		return nil
	}
	for _, e := range ex.Edges {
		say(stdout, "  %s\n", formatEdge(e))
	}
	return nil
}

// srcName pulls the producer's name out of the (src-filtered) edge list.
func srcName(ex *visibility.TaskExplain, src int) string {
	for _, e := range ex.Edges {
		if e.Src == src {
			return e.SrcName
		}
	}
	return "?"
}

// formatEdge renders one provenance edge as a single deterministic line.
func formatEdge(e visibility.EdgeExplain) string {
	switch e.Kind {
	case "region":
		over := e.Overlap
		if over == "" {
			over = "no surviving point (a conservative edge)"
		}
		return fmt.Sprintf("region edge: req %d (%s) interferes with req %d (%s) on field %s over %s",
			e.SrcReq, e.SrcPriv, e.DstReq, e.DstPriv, e.Field, over)
	case "future":
		return "future edge: explicit ordering on a task future"
	default:
		return "edge of kind " + e.Kind
	}
}

// runCritPath prints the weighted critical-path profile (or, with -dot,
// the highlighted Graphviz rendering).
func runCritPath(sess *client.Session, region string, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("critpath", flag.ContinueOnError)
	k := fs.Int("k", 5, "how many bottleneck tasks to attribute")
	dot := fs.Bool("dot", false, "emit Graphviz with the critical path highlighted")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dot {
		out, err := sess.CritDOT(region)
		if err != nil {
			return err
		}
		say(stdout, "%s", out)
		return nil
	}
	sum, err := sess.CritPath(region, *k)
	if err != nil {
		return err
	}
	if sum == nil {
		return fmt.Errorf("no critical path (nothing launched yet)")
	}
	say(stdout, "tasks %d  critical length %.0f  work %.0f  parallelism %.2f\n",
		sum.Tasks, sum.Length, sum.Work, sum.Parallelism)
	say(stdout, "\nCRITICAL PATH (virtual time: requirements + points touched):\n")
	for i, t := range sum.Path {
		say(stdout, "  %3d. task %d (%s)  w=%.0f  [%.0f..%.0f]\n", i+1, t.Task, t.Name, t.Weight, t.Start, t.Finish)
	}
	say(stdout, "\nTOP BOTTLENECKS:\n")
	for _, t := range sum.Top {
		say(stdout, "  task %d (%s)  w=%.0f  %.1f%% of makespan\n", t.Task, t.Name, t.Weight, t.SharePct)
	}
	return nil
}
