package graph_test

import (
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"visibility/internal/core"
	"visibility/internal/graph"
	"visibility/internal/privilege"
	"visibility/internal/raycast"
	"visibility/internal/testutil"
)

var update = flag.Bool("update", false, "rewrite golden files")

// chain names a stream of tasks and builds their rows: deps[i] lists the
// predecessors of task i by position/ID.
func chain(names []string, deps map[int][]int) ([]*core.Task, [][]int) {
	tasks := make([]*core.Task, len(names))
	rows := make([][]int, len(names))
	for i, n := range names {
		tasks[i] = &core.Task{ID: i, Name: n}
		rows[i] = core.Row(tasks[i], deps[i])
	}
	return tasks, rows
}

// add adds rows to a fresh graph in program order with the given
// weights; nil weights weigh every task 1.
func add(rows [][]int, weights []float64) *graph.Graph {
	g := &graph.Graph{}
	for i, row := range rows {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		g.Add(w, row)
	}
	return g
}

// randomDAG builds seeded random rows: every edge points backward, so
// launch order is a topological order, matching the runtime's streams.
func randomDAG(rng *rand.Rand, n int) [][]int {
	rows := make([][]int, n)
	for i := 0; i < n; i++ {
		for p := 0; p < i; p++ {
			if rng.Intn(3) == 0 {
				rows[i] = append(rows[i], p)
			}
		}
	}
	return rows
}

func edges(rows [][]int) int {
	n := 0
	for _, row := range rows {
		n += len(row)
	}
	return n
}

func figure5(t *testing.T) ([]*core.Task, [][]int) {
	t.Helper()
	tree, p, g := testutil.GraphTree()
	an := raycast.New(tree, core.Options{})
	s := core.NewStream(tree)
	var rows [][]int
	for _, task := range testutil.Figure5(s, p, g) {
		rows = append(rows, core.Row(task, an.Analyze(task).Deps))
	}
	return s.Tasks, rows
}

// widths counts the tasks at each level of a unit-weight graph: a label's
// finish is its level plus one.
func widths(g *graph.Graph) []int {
	w := make([]int, int(g.Length))
	for _, l := range g.Labels {
		w[int(l.Finish)-1]++
	}
	return w
}

func TestLevelsAndWidths(t *testing.T) {
	_, rows := figure5(t)
	g := add(rows, nil)
	// Figure 5: three phases of three parallel tasks.
	if w := widths(g); !reflect.DeepEqual(w, []int{3, 3, 3}) {
		t.Fatalf("widths = %v, want three levels of 3", w)
	}
	if got := g.Work / g.Length; got != 3 {
		t.Errorf("average parallelism = %v, want 3", got)
	}
}

func TestFutureEdgesMerge(t *testing.T) {
	tree, p, _ := testutil.GraphTree()
	s := core.NewStream(tree)
	a := s.Launch("a", core.Req{Region: p.Subregions[0], Field: 0, Priv: privilege.Writes()})
	b := s.Launch("b", core.Req{Region: p.Subregions[1], Field: 0, Priv: privilege.Writes()})
	b.FutureDeps = []int{a.ID}
	g := add([][]int{core.Row(a, nil), core.Row(b, nil)}, nil)
	if g.Edges != 1 {
		t.Fatalf("Edges = %d, want the future edge", g.Edges)
	}
	if w := widths(g); len(w) != 2 {
		t.Errorf("future edge should serialize: widths = %v", w)
	}
}

func TestEmptyDAG(t *testing.T) {
	g := add(nil, nil)
	if g.Edges != 0 || g.Work != 0 || g.Length != 0 || g.Path() != nil || g.MustPrecede(0, 0) {
		t.Errorf("empty graph = %+v, want zero", g)
	}
	var b strings.Builder
	if err := g.WriteDOT(&b, nil, nil); err != nil || b.String() != "digraph deps {\n  rankdir=TB; node [shape=box, fontsize=10];\n}\n" {
		t.Errorf("empty WriteDOT = %q, %v", b.String(), err)
	}
}

// TestUnitWeightFinishIsLevel holds each unit-weight finish, on seeded
// random DAGs, to 1 plus the longest edge count from a root, found here
// by relaxing every edge until nothing changes: the levels vistrace
// prints are the labels.
func TestUnitWeightFinishIsLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		rows := randomDAG(rng, 1+rng.Intn(40))
		level := make([]int, len(rows))
		for changed := true; changed; {
			changed = false
			for i := len(rows) - 1; i >= 0; i-- {
				for _, p := range rows[i] {
					if level[p]+1 > level[i] {
						level[i], changed = level[p]+1, true
					}
				}
			}
		}
		g := add(rows, nil)
		for i, l := range g.Labels {
			if l.Finish != float64(level[i]+1) {
				t.Fatalf("trial %d: task %d finishes at %v, longest path from a root has %d edges", trial, i, l.Finish, level[i])
			}
		}
		if g.Length != float64(slices.Max(level)+1) || g.Work != float64(len(rows)) {
			t.Errorf("trial %d: length %v work %v, want %d levels of %d tasks", trial, g.Length, g.Work, slices.Max(level)+1, len(rows))
		}
		for k, w := range widths(g) {
			if w == 0 {
				t.Errorf("trial %d: level %d is empty", trial, k)
			}
		}
	}
}

func TestWriteDOT(t *testing.T) {
	tasks, rows := figure5(t)
	var b strings.Builder
	if err := add(rows, nil).WriteDOT(&b, tasks, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"digraph deps", "t0 [label=", "-> t6;", "}"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

func TestMustPrecedeLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(30)
		rows := randomDAG(rng, n)
		g := add(rows, nil)
		reach := reachability(rows)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				want := a != b && reach[b][a]
				if got := g.MustPrecede(a, b); got != want {
					t.Fatalf("trial %d: MustPrecede(%d, %d) = %v, want %v", trial, a, b, got, want)
				}
			}
		}
	}
	// Out-of-range queries are false, not panics.
	_, rows := chain([]string{"x"}, nil)
	if g := add(rows, nil); g.MustPrecede(-1, 0) || g.MustPrecede(0, 5) || g.MustPrecede(0, 0) {
		t.Error("out-of-range or self MustPrecede should be false")
	}
	// A query allocates its window's visited bits and a stack, never a
	// V×V table: the whole-stream query on a 16k-task ladder stays linear.
	const v = 1 << 14
	names, deps := make([]string, v), map[int][]int{}
	for i := 1; i < v; i++ {
		deps[i] = []int{i - 1}
		if i > 1 {
			deps[i] = append(deps[i], i-2)
		}
	}
	_, rows = chain(names, deps)
	ladder := add(rows, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if !ladder.MustPrecede(0, v-1) {
		t.Error("ladder: 0 must precede the last task")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64*v {
		t.Errorf("MustPrecede allocated %d bytes on a %d-task stream, want O(V)", got, v)
	}
}

// reachability computes the brute-force transitive ancestor sets:
// reach[b][a] reports a as a strict ancestor of b.
func reachability(rows [][]int) [][]bool {
	n := len(rows)
	reach := make([][]bool, n)
	for i := 0; i < n; i++ {
		reach[i] = make([]bool, n)
		for _, p := range rows[i] {
			reach[i][p] = true
			for a := 0; a < n; a++ {
				if reach[p][a] {
					reach[i][a] = true
				}
			}
		}
	}
	return reach
}

// TestWriteDOTGolden pins the byte-exact DOT exports — plain and
// critical-path-highlighted — for a fixed weighted diamond. Run with
// -update to rewrite the golden files after a deliberate format change.
func TestWriteDOTGolden(t *testing.T) {
	tasks, rows := chain([]string{"init", "sim", "ghost", "out"}, map[int][]int{
		1: {0}, 2: {0}, 3: {1, 2},
	})
	// Weights 1, 6, 2, 1: the chain init → sim → out finishes at 1, 7, 8.
	g := add(rows, []float64{1, 6, 2, 1})
	path := []graph.Step{{Task: 0, Weight: 1, Finish: 1}, {Task: 1, Weight: 6, Finish: 7}, {Task: 3, Weight: 1, Finish: 8}}
	if got := g.Path(); !reflect.DeepEqual(got, path) {
		t.Fatalf("path = %v, want %v", got, path)
	}
	for golden, path := range map[string][]graph.Step{"figure_plain.dot": nil, "figure_crit.dot": path} {
		var b strings.Builder
		if err := g.WriteDOT(&b, tasks, path); err != nil {
			t.Fatalf("%s: %v", golden, err)
		}
		file := filepath.Join("testdata", golden)
		if *update {
			if err := os.WriteFile(file, []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create)", golden, err)
		}
		if b.String() != string(want) {
			t.Errorf("%s: output differs from golden:\ngot:\n%s\nwant:\n%s", golden, b.String(), want)
		}
	}
}

func TestWeightedCriticalPathEmpty(t *testing.T) {
	g := add(nil, nil)
	if g.Length != 0 || g.Work != 0 || g.Edges != 0 || g.Path() != nil {
		t.Errorf("empty graph = %+v, path %v, want zero", g, g.Path())
	}
	if got := graph.Top(g.Path(), 5); len(got) != 0 {
		t.Errorf("empty Top = %v, want none", got)
	}
}

func TestWeightedCriticalPathSingleTask(t *testing.T) {
	_, rows := chain([]string{"only"}, nil)
	g := add(rows, []float64{7})
	if g.Length != 7 || g.Work != 7 {
		t.Errorf("single task: length %v work %v, want 7, 7", g.Length, g.Work)
	}
	if got, want := g.Path(), []graph.Step{{Task: 0, Weight: 7, Finish: 7}}; !reflect.DeepEqual(got, want) {
		t.Errorf("single task path = %v, want %v", got, want)
	}
	if g.Labels[0].Pred != -1 {
		t.Errorf("single task critical predecessor = %d, want -1", g.Labels[0].Pred)
	}
}

// TestWeightedCriticalPathDeterministicTies pins the tie-break rules: with
// two equal-weight parallel arms the critical predecessor is the smallest
// ID, and with two tasks at the makespan the path ends at the first.
func TestWeightedCriticalPathDeterministicTies(t *testing.T) {
	// Diamond with equal arms: 0 -> {1, 2} -> 3, then 4 after 1 ties 3's
	// finish. The path must take task 1 and end at task 3.
	_, rows := chain([]string{"root", "a", "b", "join", "late"}, map[int][]int{
		1: {0}, 2: {0}, 3: {1, 2}, 4: {1},
	})
	g := add(rows, []float64{1, 5, 5, 1, 1})
	want := []graph.Step{{Task: 0, Weight: 1, Finish: 1}, {Task: 1, Weight: 5, Finish: 6}, {Task: 3, Weight: 1, Finish: 7}}
	if got := g.Path(); !reflect.DeepEqual(got, want) {
		t.Fatalf("path = %v, want %v (ties break to smallest ID)", got, want)
	}
	if g.Length != 7 || g.End != 3 {
		t.Errorf("length %v end %d, want 7, 3", g.Length, g.End)
	}
}

// TestWeightedCriticalPathProperties cross-checks invariants on seeded
// random DAGs: each finish is its weight past the latest predecessor
// finish, the path is a real dependence chain whose weights sum to the
// makespan, the totals add up, and adding is deterministic.
func TestWeightedCriticalPathProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		rows := randomDAG(rng, n)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = float64(1 + rng.Intn(9))
		}
		g := add(rows, weights)
		var work, length float64
		for i, l := range g.Labels {
			var start float64
			for _, p := range rows[i] {
				start = max(start, g.Labels[p].Finish)
			}
			if l.Weight != weights[i] || l.Finish != start+weights[i] {
				t.Fatalf("trial %d: task %d label %+v, want weight %v finish %v", trial, i, l, weights[i], start+weights[i])
			}
			work += weights[i]
			length = max(length, l.Finish)
		}
		if g.Work != work || g.Length != length || g.Edges != edges(rows) {
			t.Errorf("trial %d: totals work %v length %v edges %d, want %v %v %d",
				trial, g.Work, g.Length, g.Edges, work, length, edges(rows))
		}
		path := g.Path()
		if len(path) == 0 {
			t.Fatalf("trial %d: empty path on %d tasks", trial, n)
		}
		var sum float64
		for i, s := range path {
			sum += s.Weight
			if s.Finish != sum {
				t.Errorf("trial %d: step %d finishes at %v, want %v", trial, i, s.Finish, sum)
			}
			if i > 0 && !slices.Contains(rows[s.Task], path[i-1].Task) {
				t.Errorf("trial %d: path step %d -> %d is not a dependence", trial, path[i-1].Task, s.Task)
			}
		}
		if sum != g.Length {
			t.Errorf("trial %d: path weight %v != makespan %v", trial, sum, g.Length)
		}
		// Determinism: a second pass over the same inputs is identical.
		if g2 := add(rows, weights); !reflect.DeepEqual(g2, g) {
			t.Fatalf("trial %d: nondeterministic graph: %+v vs %+v", trial, g, g2)
		}
	}
}

func TestTopContributors(t *testing.T) {
	_, rows := chain([]string{"a", "b", "c"}, map[int][]int{1: {0}, 2: {1}})
	g := add(rows, []float64{2, 8, 10})
	path := g.Path()
	top := graph.Top(path, 2)
	if len(top) != 2 {
		t.Fatalf("Top = %v, want 2", top)
	}
	if top[0].Task != 2 || top[1].Task != 1 {
		t.Errorf("contributors = %v, want tasks 2 then 1 (descending weight)", top)
	}
	if got := top[0].Weight / g.Length; got != 0.5 {
		t.Errorf("task 2 share = %v, want 0.5", got)
	}
	// k <= 0 returns the whole path, heaviest first, and leaves it as it was.
	if all := graph.Top(path, 0); len(all) != 3 {
		t.Errorf("k=0 returned %d contributors, want 3", len(all))
	}
	if path[0].Task != 0 || path[1].Task != 1 || path[2].Task != 2 {
		t.Errorf("Top reordered the path: %v", path)
	}
	// Equal weights keep path order.
	tied := []graph.Step{{Task: 0, Weight: 3}, {Task: 4, Weight: 5}, {Task: 6, Weight: 3}}
	if got := graph.Top(tied, 0); got[1].Task != 0 || got[2].Task != 6 {
		t.Errorf("tied Top = %v, want 4, 0, 6", got)
	}
}
