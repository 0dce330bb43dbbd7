package graph_test

import (
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"visibility/internal/core"
	"visibility/internal/graph"
	"visibility/internal/privilege"
	"visibility/internal/raycast"
	"visibility/internal/testutil"
)

var update = flag.Bool("update", false, "rewrite golden files")

// chain builds a DAG of named tasks with explicit dependence lists
// (deps[i] lists predecessors of task i by position/ID).
func chain(names []string, deps map[int][]int) *graph.DAG {
	tasks := make([]*core.Task, len(names))
	for i, n := range names {
		tasks[i] = &core.Task{ID: i, Name: n}
	}
	return graph.FromStream(tasks, deps)
}

// randomDAG builds a seeded random DAG: every edge points backward, so
// launch order is a topological order, matching the runtime's streams.
func randomDAG(rng *rand.Rand, n int) *graph.DAG {
	names := make([]string, n)
	deps := map[int][]int{}
	for i := 0; i < n; i++ {
		names[i] = "t"
		for p := 0; p < i; p++ {
			if rng.Intn(3) == 0 {
				deps[i] = append(deps[i], p)
			}
		}
	}
	return chain(names, deps)
}

func figure5DAG(t *testing.T) *graph.DAG {
	t.Helper()
	tree, p, g := testutil.GraphTree()
	an := raycast.New(tree, core.Options{})
	s := core.NewStream(tree)
	deps := make(map[int][]int)
	for _, task := range testutil.Figure5(s, p, g) {
		deps[task.ID] = an.Analyze(task).Deps
	}
	return graph.FromStream(s.Tasks, deps)
}

func TestLevelsAndWidths(t *testing.T) {
	d := figure5DAG(t)
	widths := d.Widths()
	// Figure 5: three phases of three parallel tasks.
	if len(widths) != 3 {
		t.Fatalf("levels = %d, want 3 (widths %v)", len(widths), widths)
	}
	for i, w := range widths {
		if w != 3 {
			t.Errorf("level %d width = %d, want 3", i, w)
		}
	}
	if got := d.AverageParallelism(); got != 3 {
		t.Errorf("AverageParallelism = %v, want 3", got)
	}
}

func TestFutureEdgesMerge(t *testing.T) {
	tree, p, _ := testutil.GraphTree()
	s := core.NewStream(tree)
	a := s.Launch("a", core.Req{Region: p.Subregions[0], Field: 0, Priv: privilege.Writes()})
	b := s.Launch("b", core.Req{Region: p.Subregions[1], Field: 0, Priv: privilege.Writes()})
	b.FutureDeps = []int{a.ID}
	d := graph.FromStream(s.Tasks, map[int][]int{})
	if d.Edges() != 1 {
		t.Fatalf("Edges = %d, want the future edge", d.Edges())
	}
	if w := d.Widths(); len(w) != 2 {
		t.Errorf("future edge should serialize: widths = %v", w)
	}
}

func TestEmptyDAG(t *testing.T) {
	d := graph.FromStream(nil, nil)
	if d.AverageParallelism() != 0 || d.Edges() != 0 {
		t.Error("empty DAG analytics wrong")
	}
}

func TestWriteDOT(t *testing.T) {
	d := figure5DAG(t)
	var b strings.Builder
	if err := d.WriteDOT(&b, nil); err != nil {
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
		d := randomDAG(rng, n)
		reach := reachability(d)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				want := a != b && reach[b][a]
				if got := d.MustPrecede(a, b); got != want {
					t.Fatalf("trial %d: MustPrecede(%d, %d) = %v, want %v", trial, a, b, got, want)
				}
			}
		}
	}
	// Out-of-range queries are false, not panics.
	d := chain([]string{"x"}, nil)
	if d.MustPrecede(-1, 0) || d.MustPrecede(0, 5) || d.MustPrecede(0, 0) {
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
	ladder := chain(names, deps)
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
func reachability(d *graph.DAG) [][]bool {
	n := len(d.Tasks)
	reach := make([][]bool, n)
	for i := 0; i < n; i++ {
		reach[i] = make([]bool, n)
		for _, p := range d.Deps[i] {
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
	d := chain([]string{"init", "sim", "ghost", "out"}, map[int][]int{
		1: {0}, 2: {0}, 3: {1, 2},
	})
	// Weights 1, 6, 2, 1: the chain init → sim → out finishes at 1, 7, 8.
	path := []graph.Step{{Task: 0, Weight: 1, Finish: 1}, {Task: 1, Weight: 6, Finish: 7}, {Task: 3, Weight: 1, Finish: 8}}
	cases := []struct {
		golden string
		write  func(b *strings.Builder) error
	}{
		{"figure_plain.dot", func(b *strings.Builder) error { return d.WriteDOT(b, nil) }},
		{"figure_crit.dot", func(b *strings.Builder) error { return d.WriteDOT(b, path) }},
	}
	for _, tc := range cases {
		var b strings.Builder
		if err := tc.write(&b); err != nil {
			t.Fatalf("%s: %v", tc.golden, err)
		}
		path := filepath.Join("testdata", tc.golden)
		if *update {
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create)", tc.golden, err)
		}
		if b.String() != string(want) {
			t.Errorf("%s: output differs from golden:\ngot:\n%s\nwant:\n%s", tc.golden, b.String(), want)
		}
	}
}
