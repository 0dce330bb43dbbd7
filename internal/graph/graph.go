// Package graph provides analytics over discovered dependence DAGs: level
// structure (the parallelism profile), critical paths, and Graphviz
// export. The inspection CLI and tests use it to answer "how much
// parallelism did the analysis expose?".
package graph

import (
	"fmt"
	"io"

	"visibility/internal/core"
)

// DAG is a dependence graph over a task stream: Deps[i] lists the direct
// predecessors of task i (task IDs equal positions).
type DAG struct {
	Tasks []*core.Task
	Deps  [][]int
}

// FromStream assembles a DAG from analyzer results, merging in future
// edges (which the runtime enforces alongside analyzer dependences).
func FromStream(tasks []*core.Task, deps map[int][]int) *DAG {
	d := &DAG{Tasks: tasks, Deps: make([][]int, len(tasks))}
	for i, t := range tasks {
		merged := append(append([]int{}, deps[t.ID]...), t.FutureDeps...)
		d.Deps[i] = core.DedupDeps(merged)
	}
	return d
}

// Edges returns the total number of dependence edges.
func (d *DAG) Edges() int {
	n := 0
	for _, ds := range d.Deps {
		n += len(ds)
	}
	return n
}

// MustPrecede reports whether every legal execution runs a before b: a is
// a (transitive) dependence ancestor of b. A task does not precede itself;
// out-of-range IDs report false. IDs are topological (a dependence names a
// smaller ID), so the backward search from b never leaves the IDs above a:
// one visited bit per task between them, nothing kept between queries.
func (d *DAG) MustPrecede(a, b int) bool {
	if a < 0 || b >= len(d.Tasks) || a >= b {
		return false
	}
	seen := make([]uint64, (b-a+63)/64) // bit i: task a+1+i
	stack := []int{b}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range d.Deps[t] {
			if p == a {
				return true
			}
			if i := uint(p - a - 1); p > a && seen[i/64]&(1<<(i%64)) == 0 {
				seen[i/64] |= 1 << (i % 64)
				stack = append(stack, p)
			}
		}
	}
	return false
}

// Levels assigns each task its earliest schedulable level (longest path
// from a root) and returns the per-task levels.
func (d *DAG) Levels() []int {
	levels := make([]int, len(d.Tasks))
	for i := range d.Tasks {
		for _, p := range d.Deps[i] {
			if levels[p]+1 > levels[i] {
				levels[i] = levels[p] + 1
			}
		}
	}
	return levels
}

// Widths returns the number of tasks at each level — the parallelism
// profile of the DAG.
func (d *DAG) Widths() []int {
	levels := d.Levels()
	max := 0
	for _, l := range levels {
		if l > max {
			max = l
		}
	}
	widths := make([]int, max+1)
	for _, l := range levels {
		widths[l]++
	}
	return widths
}

// AverageParallelism returns tasks divided by levels — the speedup an
// infinitely wide machine could extract.
func (d *DAG) AverageParallelism() float64 {
	if len(d.Tasks) == 0 {
		return 0
	}
	return float64(len(d.Tasks)) / float64(len(d.Widths()))
}

// WriteDOT exports the DAG in Graphviz format. A non-nil c highlights its
// critical path: critical tasks carry their weight and cumulative finish
// time in the label and are drawn bold red, as are the chain's edges.
// Everything else is written as with a nil c, so diffs against the plain
// export stay readable.
func (d *DAG) WriteDOT(w io.Writer, c *Critical) error {
	onPath := make([]bool, len(d.Tasks))
	next := make([]int, len(d.Tasks)) // successor along the path; -1 off it
	for i := range next {
		next[i] = -1
	}
	if c != nil {
		for i, id := range c.Path {
			onPath[id] = true
			if i+1 < len(c.Path) {
				next[id] = c.Path[i+1]
			}
		}
	}
	pw := &printer{w: w}
	pw.printf("digraph deps {\n")
	pw.printf("  rankdir=TB; node [shape=box, fontsize=10];\n")
	for i, t := range d.Tasks {
		if onPath[i] {
			pw.printf("  t%d [label=%q, color=red, penwidth=2];\n",
				i, fmt.Sprintf("%s\nw=%.0f fin=%.0f", t.String(), c.Weights[i], c.Finish[i]))
		} else {
			pw.printf("  t%d [label=%q];\n", i, t.String())
		}
	}
	for i, ds := range d.Deps {
		for _, p := range ds {
			if onPath[p] && next[p] == i {
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
