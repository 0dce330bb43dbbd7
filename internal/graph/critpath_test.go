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

func TestWeightedCriticalPathEmpty(t *testing.T) {
	d := graph.FromStream(nil, nil)
	c := d.WeightedCriticalPath(nil)
	if c.Length != 0 || c.Work != 0 || c.Path != nil {
		t.Errorf("empty DAG critical path = %+v, want zero", c)
	}
	if got := d.LevelSlack(c); got != nil {
		t.Errorf("empty DAG LevelSlack = %v, want nil", got)
	}
	if got := d.TopContributors(c, 5); len(got) != 0 {
		t.Errorf("empty DAG TopContributors = %v, want none", got)
	}
}

func TestWeightedCriticalPathSingleTask(t *testing.T) {
	d := chain([]string{"only"}, nil)
	c := d.WeightedCriticalPath([]float64{7})
	if c.Length != 7 || c.Work != 7 {
		t.Errorf("single task: length %v work %v, want 7, 7", c.Length, c.Work)
	}
	if len(c.Path) != 1 || c.Path[0] != 0 {
		t.Errorf("single task path = %v, want [0]", c.Path)
	}
	if c.Slack[0] != 0 {
		t.Errorf("single task slack = %v, want 0", c.Slack[0])
	}
	// Missing or sub-1 weights clamp to 1: a task still occupies a step.
	c = d.WeightedCriticalPath(nil)
	if c.Length != 1 {
		t.Errorf("unweighted single task length = %v, want 1", c.Length)
	}
}

// TestWeightedCriticalPathDeterministicTies pins the tie-break rule: with
// two equal-weight parallel chains, the critical path follows the
// smallest task IDs, and repeated runs return identical results.
func TestWeightedCriticalPathDeterministicTies(t *testing.T) {
	// Diamond with equal arms: 0 -> {1, 2} -> 3. Both arms tie; the path
	// must take task 1.
	d := chain([]string{"root", "a", "b", "join"}, map[int][]int{
		1: {0}, 2: {0}, 3: {1, 2},
	})
	c := d.WeightedCriticalPath([]float64{1, 5, 5, 1})
	want := []int{0, 1, 3}
	if len(c.Path) != len(want) {
		t.Fatalf("path = %v, want %v", c.Path, want)
	}
	for i := range want {
		if c.Path[i] != want[i] {
			t.Fatalf("path = %v, want %v (ties break to smallest ID)", c.Path, want)
		}
	}
	if c.Length != 7 {
		t.Errorf("length = %v, want 7", c.Length)
	}
}

// TestWeightedCriticalPathProperties cross-checks invariants on seeded
// random DAGs: the path is a real dependence chain whose weights sum to
// the makespan, slack is non-negative and zero along the path, and the
// whole analysis is deterministic across repeated runs.
func TestWeightedCriticalPathProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		d := randomDAG(rng, n)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = float64(1 + rng.Intn(9))
		}
		c := d.WeightedCriticalPath(weights)
		if len(c.Path) == 0 {
			t.Fatalf("trial %d: empty path on %d tasks", trial, n)
		}
		var sum float64
		for _, id := range c.Path {
			sum += c.Weights[id]
			if c.Slack[id] != 0 {
				t.Errorf("trial %d: critical task %d has slack %v", trial, id, c.Slack[id])
			}
		}
		if sum != c.Length {
			t.Errorf("trial %d: path weight %v != makespan %v", trial, sum, c.Length)
		}
		for i := 1; i < len(c.Path); i++ {
			dep := false
			for _, p := range d.Deps[c.Path[i]] {
				if p == c.Path[i-1] {
					dep = true
				}
			}
			if !dep {
				t.Errorf("trial %d: path step %d -> %d is not a dependence",
					trial, c.Path[i-1], c.Path[i])
			}
		}
		for i := 0; i < n; i++ {
			if c.Slack[i] < 0 {
				t.Errorf("trial %d: task %d slack %v < 0", trial, i, c.Slack[i])
			}
			if c.Finish[i] != c.Start[i]+c.Weights[i] {
				t.Errorf("trial %d: task %d finish != start + weight", trial, i)
			}
		}
		// Determinism: a second run over the same inputs is identical.
		c2 := d.WeightedCriticalPath(weights)
		if len(c2.Path) != len(c.Path) {
			t.Fatalf("trial %d: nondeterministic path length", trial)
		}
		for i := range c.Path {
			if c2.Path[i] != c.Path[i] {
				t.Fatalf("trial %d: nondeterministic path: %v vs %v", trial, c.Path, c2.Path)
			}
		}
	}
}

func TestLevelSlack(t *testing.T) {
	// 0 -> 1 -> 3, 0 -> 2 -> 3 with a light second arm: level 1 holds both
	// the critical task 1 (slack 0) and the slack-y task 2, so the level
	// reports the binding minimum, 0.
	d := chain([]string{"r", "heavy", "light", "join"}, map[int][]int{
		1: {0}, 2: {0}, 3: {1, 2},
	})
	c := d.WeightedCriticalPath([]float64{1, 10, 2, 1})
	ls := d.LevelSlack(c)
	if len(ls) != 3 {
		t.Fatalf("LevelSlack = %v, want 3 levels", ls)
	}
	for i, s := range ls {
		if s != 0 {
			t.Errorf("level %d slack = %v, want 0 (critical chain spans every level)", i, s)
		}
	}
}

func TestTopContributors(t *testing.T) {
	d := chain([]string{"a", "b", "c"}, map[int][]int{1: {0}, 2: {1}})
	c := d.WeightedCriticalPath([]float64{2, 8, 10})
	top := d.TopContributors(c, 2)
	if len(top) != 2 {
		t.Fatalf("TopContributors = %v, want 2", top)
	}
	if top[0].Task != 2 || top[1].Task != 1 {
		t.Errorf("contributors = %v, want tasks 2 then 1 (descending weight)", top)
	}
	if got := top[0].Share; got != 0.5 {
		t.Errorf("task 2 share = %v, want 0.5", got)
	}
	// k <= 0 returns the whole path, heaviest first.
	if all := d.TopContributors(c, 0); len(all) != 3 {
		t.Errorf("k=0 returned %d contributors, want 3", len(all))
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
	c := d.WeightedCriticalPath([]float64{1, 6, 2, 1})
	cases := []struct {
		golden string
		write  func(b *strings.Builder) error
	}{
		{"figure_plain.dot", func(b *strings.Builder) error { return d.WriteDOT(b) }},
		{"figure_crit.dot", func(b *strings.Builder) error { return d.WriteDOTCrit(b, c) }},
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
