package graph_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"visibility/internal/graph"
)

// label adds every task of d to a fresh label table, in program order,
// with the given weights.
func label(d *graph.DAG, weights []float64) *graph.Labels {
	c := &graph.Labels{}
	for i, row := range d.Deps {
		c.Add(weights[i], row)
	}
	return c
}

func TestWeightedCriticalPathEmpty(t *testing.T) {
	c := label(graph.FromStream(nil, nil), nil)
	if c.Length != 0 || c.Work != 0 || c.Edges != 0 || c.Path() != nil {
		t.Errorf("empty label table = %+v, path %v, want zero", c, c.Path())
	}
	if got := graph.Top(c.Path(), 5); len(got) != 0 {
		t.Errorf("empty Top = %v, want none", got)
	}
}

func TestWeightedCriticalPathSingleTask(t *testing.T) {
	c := label(chain([]string{"only"}, nil), []float64{7})
	if c.Length != 7 || c.Work != 7 {
		t.Errorf("single task: length %v work %v, want 7, 7", c.Length, c.Work)
	}
	if got, want := c.Path(), []graph.Step{{Task: 0, Weight: 7, Finish: 7}}; !reflect.DeepEqual(got, want) {
		t.Errorf("single task path = %v, want %v", got, want)
	}
	if c.Tasks[0].Pred != -1 {
		t.Errorf("single task critical predecessor = %d, want -1", c.Tasks[0].Pred)
	}
}

// TestWeightedCriticalPathDeterministicTies pins the tie-break rules: with
// two equal-weight parallel arms the critical predecessor is the smallest
// ID, and with two tasks at the makespan the path ends at the first.
func TestWeightedCriticalPathDeterministicTies(t *testing.T) {
	// Diamond with equal arms: 0 -> {1, 2} -> 3, then 4 after 1 ties 3's
	// finish. The path must take task 1 and end at task 3.
	d := chain([]string{"root", "a", "b", "join", "late"}, map[int][]int{
		1: {0}, 2: {0}, 3: {1, 2}, 4: {1},
	})
	c := label(d, []float64{1, 5, 5, 1, 1})
	want := []graph.Step{{Task: 0, Weight: 1, Finish: 1}, {Task: 1, Weight: 5, Finish: 6}, {Task: 3, Weight: 1, Finish: 7}}
	if got := c.Path(); !reflect.DeepEqual(got, want) {
		t.Fatalf("path = %v, want %v (ties break to smallest ID)", got, want)
	}
	if c.Length != 7 || c.End != 3 {
		t.Errorf("length %v end %d, want 7, 3", c.Length, c.End)
	}
}

// TestWeightedCriticalPathProperties cross-checks invariants on seeded
// random DAGs: each finish is its weight past the latest predecessor
// finish, the path is a real dependence chain whose weights sum to the
// makespan, the totals add up, and labelling is deterministic.
func TestWeightedCriticalPathProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		d := randomDAG(rng, n)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = float64(1 + rng.Intn(9))
		}
		c := label(d, weights)
		var work, length float64
		for i, l := range c.Tasks {
			var start float64
			for _, p := range d.Deps[i] {
				start = max(start, c.Tasks[p].Finish)
			}
			if l.Weight != weights[i] || l.Finish != start+weights[i] {
				t.Fatalf("trial %d: task %d label %+v, want weight %v finish %v", trial, i, l, weights[i], start+weights[i])
			}
			work += weights[i]
			length = max(length, l.Finish)
		}
		if c.Work != work || c.Length != length || c.Edges != d.Edges() {
			t.Errorf("trial %d: totals work %v length %v edges %d, want %v %v %d",
				trial, c.Work, c.Length, c.Edges, work, length, d.Edges())
		}
		path := c.Path()
		if len(path) == 0 {
			t.Fatalf("trial %d: empty path on %d tasks", trial, n)
		}
		var sum float64
		for i, s := range path {
			sum += s.Weight
			if s.Finish != sum {
				t.Errorf("trial %d: step %d finishes at %v, want %v", trial, i, s.Finish, sum)
			}
			if i > 0 && !slices.Contains(d.Deps[s.Task], path[i-1].Task) {
				t.Errorf("trial %d: path step %d -> %d is not a dependence", trial, path[i-1].Task, s.Task)
			}
		}
		if sum != c.Length {
			t.Errorf("trial %d: path weight %v != makespan %v", trial, sum, c.Length)
		}
		// Determinism: a second pass over the same inputs is identical.
		if c2 := label(d, weights); !reflect.DeepEqual(c2, c) {
			t.Fatalf("trial %d: nondeterministic labels: %+v vs %+v", trial, c, c2)
		}
	}
}

func TestTopContributors(t *testing.T) {
	d := chain([]string{"a", "b", "c"}, map[int][]int{1: {0}, 2: {1}})
	c := label(d, []float64{2, 8, 10})
	path := c.Path()
	top := graph.Top(path, 2)
	if len(top) != 2 {
		t.Fatalf("Top = %v, want 2", top)
	}
	if top[0].Task != 2 || top[1].Task != 1 {
		t.Errorf("contributors = %v, want tasks 2 then 1 (descending weight)", top)
	}
	if got := top[0].Weight / c.Length; got != 0.5 {
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
