// Package graph keeps a discovered dependence graph as it is found: one
// row and one critical-path label per task, appended together in program
// order, with precedence queries and Graphviz export over them. The
// runtime's explain queries and the inspection CLI read it.
package graph

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"visibility/internal/core"
)

// Label is one task's place on the weighted critical path.
type Label struct {
	Weight float64
	Finish float64 // earliest finish: the latest predecessor finish plus Weight
	Pred   int     // critical predecessor: the smallest ID with that finish; -1 at a root
	Low    int     // the smallest ancestor ID; the task's own at a root
}

// Graph is a dependence graph kept online: Rows[i] lists task i's direct
// predecessors in ascending order, Labels[i] places it on the weighted
// critical path, and the totals are what a query reads. Launches arrive in
// program order and are never revised (§3.2), so when a task is added its
// row is final and every predecessor is already labelled: both are fixed
// then, and a query reads them as they stand. With unit weights a label's
// Finish is its level plus one and Length is the number of levels.
type Graph struct {
	Rows         [][]int
	Labels       []Label
	Edges        int
	Work, Length float64
	End          int // the path's last task: the smallest ID whose finish is Length
}

// Add appends the next task, of weight w, whose dependence row is row:
// ascending IDs of tasks already added. The graph keeps row.
func (g *Graph) Add(w float64, row []int) {
	l := Label{Weight: w, Pred: -1, Low: len(g.Labels)}
	for _, p := range row {
		if f := g.Labels[p].Finish; f > l.Finish {
			l.Finish, l.Pred = f, p
		}
		l.Low = min(l.Low, p, g.Labels[p].Low)
	}
	l.Finish += w
	if l.Finish > g.Length {
		g.Length, g.End = l.Finish, len(g.Labels)
	}
	g.Rows = append(g.Rows, row)
	g.Labels = append(g.Labels, l)
	g.Edges += len(row)
	g.Work += w
}

// MustPrecede reports whether every legal execution runs a before b: a is
// a (transitive) dependence ancestor of b. A task does not precede itself;
// out-of-range IDs report false. IDs are topological (a dependence names a
// smaller ID), so the backward search from b never leaves the IDs above a:
// one visited bit per task between them, nothing kept between queries. It
// does not enter a task whose ancestors all lie above a (Low > a), and
// answers at once when b is such a task.
func (g *Graph) MustPrecede(a, b int) bool {
	if a < 0 || b >= len(g.Rows) || a >= b || a < g.Labels[b].Low {
		return false
	}
	seen := make([]uint64, (b-a+63)/64) // bit i: task a+1+i
	stack := []int{b}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.Rows[t] {
			if p == a {
				return true
			}
			if i := uint(p - a - 1); p > a && g.Labels[p].Low <= a && seen[i/64]&(1<<(i%64)) == 0 {
				seen[i/64] |= 1 << (i % 64)
				stack = append(stack, p)
			}
		}
	}
	return false
}

// Step is one task of a highlighted path with its weight and the finish
// time the path reaches at it.
type Step struct {
	Task           int
	Weight, Finish float64
}

// Path returns the critical path in execution order, each task with its
// weight and finish: a walk back from its end. Nil when nothing was added.
func (g *Graph) Path() []Step {
	if len(g.Labels) == 0 {
		return nil
	}
	var path []Step
	for id := g.End; id != -1; id = g.Labels[id].Pred {
		path = append(path, Step{Task: id, Weight: g.Labels[id].Weight, Finish: g.Labels[id].Finish})
	}
	slices.Reverse(path)
	return path
}

// Top returns the k heaviest steps of path, descending by weight, equal
// weights in path order; k ≤ 0 returns them all. path is not modified.
func Top(path []Step, k int) []Step {
	top := slices.Clone(path)
	slices.SortStableFunc(top, func(a, b Step) int { return cmp.Compare(b.Weight, a.Weight) })
	if k > 0 && k < len(top) {
		top = top[:k]
	}
	return top
}

// WriteDOT exports the graph in Graphviz format, tasks[i] naming task i. A
// non-empty path, a chain of dependences in execution order, is
// highlighted: its tasks carry their weight and finish time in the label
// and are drawn bold red, as are the chain's edges. Everything else is
// written as with a nil path, so diffs against the plain export stay
// readable.
func (g *Graph) WriteDOT(w io.Writer, tasks []*core.Task, path []Step) error {
	at := make([]int, len(g.Rows)) // position on the path; -1 off it
	for i := range at {
		at[i] = -1
	}
	for i, s := range path {
		at[s.Task] = i
	}
	pw := &printer{w: w}
	pw.printf("digraph deps {\n")
	pw.printf("  rankdir=TB; node [shape=box, fontsize=10];\n")
	for i := range g.Rows {
		if j := at[i]; j >= 0 {
			pw.printf("  t%d [label=%q, color=red, penwidth=2];\n",
				i, fmt.Sprintf("%s\nw=%.0f fin=%.0f", tasks[i].String(), path[j].Weight, path[j].Finish))
		} else {
			pw.printf("  t%d [label=%q];\n", i, tasks[i].String())
		}
	}
	for i, row := range g.Rows {
		for _, p := range row {
			if j := at[p]; j >= 0 && j+1 < len(path) && path[j+1].Task == i {
				pw.printf("  t%d -> t%d [color=red, penwidth=2];\n", p, i)
			} else {
				pw.printf("  t%d -> t%d;\n", p, i)
			}
		}
	}
	pw.printf("}\n")
	return pw.err
}

// printer accumulates formatted output to an io.Writer, holding the first
// write error so WriteDOT can check once at the end instead of after every
// line.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}
