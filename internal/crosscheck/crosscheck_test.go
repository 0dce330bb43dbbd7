// Package crosscheck cross-validates all four coherence analyzers (naive
// painter, optimized painter, Warnock, ray casting) against the sequential
// ground-truth interpreter and the exact dependence analysis, on the
// paper's running example and on randomized task streams.
package crosscheck

import (
	"math/rand"
	"testing"

	"visibility/internal/core"
	"visibility/internal/harness"
	"visibility/internal/paint"
	"visibility/internal/privilege"
	"visibility/internal/raycast"
	"visibility/internal/region"
	"visibility/internal/testutil"
	"visibility/internal/warnock"
)

// allFactories returns fresh-analyzer factories for every algorithm.
func allFactories() []core.Factory {
	return []core.Factory{
		{Name: "paint-naive", New: func(tr *region.Tree) core.Analyzer { return paint.NewNaive(tr) }},
		{Name: "paint", New: func(tr *region.Tree) core.Analyzer { return paint.NewPainter(tr, core.Options{}) }},
		{Name: "warnock", New: func(tr *region.Tree) core.Analyzer { return warnock.New(tr, core.Options{}) }},
		{Name: "raycast", New: func(tr *region.Tree) core.Analyzer { return raycast.New(tr, core.Options{}) }},
	}
}

// figure5Stream is the nine launches of Figure 5 as a fresh stream.
func figure5Stream(tree *region.Tree, p, g *region.Partition) *core.Stream {
	s := core.NewStream(tree)
	testutil.Figure5(s, p, g)
	return s
}

func TestFigure5AllAnalyzers(t *testing.T) {
	tree, p, g := testutil.GraphTree()
	s := figure5Stream(tree, p, g)
	if err := core.Verify(s, testutil.FullInit(tree), core.HashKernel{}, allFactories()...); err != nil {
		t.Fatal(err)
	}
}

// TestFigure5Parallelism checks the parallel structure the paper derives
// from Figure 5: the three tasks inside each phase are mutually
// independent, while phases are ordered through the data they share.
func TestFigure5Parallelism(t *testing.T) {
	tree, p, g := testutil.GraphTree()
	s := figure5Stream(tree, p, g)
	exact := core.ExactDeps(s.Tasks)

	for _, fac := range allFactories() {
		an := fac.New(tree)
		var got [][]int
		for _, task := range s.Tasks {
			got = append(got, an.Analyze(task).Deps)
		}
		if err := core.CheckSound(got, exact); err != nil {
			t.Errorf("%s: %v", fac.Name, err)
			continue
		}
		c := core.NewClosure(got)
		// Within-phase independence: t0-2, t3-5, t6-8 run in parallel.
		for _, group := range [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}} {
			for _, a := range group {
				for _, b := range group {
					if a != b && c.Reaches(a, b) {
						t.Errorf("%s: spurious ordering %d -> %d within a parallel phase", fac.Name, a, b)
					}
				}
			}
		}
		// Cross-phase exact dependences, computed from the ring geometry:
		// t4 reduces G[1].up = {2..5, 12..15}, overlapping t0's write of
		// P[0].up = {0..5} and t2's write of P[2].up; t6 rewrites P[0].up,
		// overlapping the reductions of t4 and t5.
		for _, pair := range [][2]int{{0, 4}, {2, 4}, {4, 6}, {5, 6}} {
			if !c.Reaches(pair[0], pair[1]) {
				t.Errorf("%s: missing required ordering %d -> %d", fac.Name, pair[0], pair[1])
			}
		}
	}
}

// TestFigure5SteadyStateLoop runs many iterations of the Figure 1 loop and
// verifies coherence end to end (this exercises occlusion pruning and
// dominating writes over a long stream).
func TestFigure5SteadyStateLoop(t *testing.T) {
	tree, p, g := testutil.GraphTree()
	up, _ := tree.Fields.Lookup("up")
	down, _ := tree.Fields.Lookup("down")
	s := core.NewStream(tree)
	for iter := 0; iter < 10; iter++ {
		for i := 0; i < 3; i++ {
			s.Launch("t1",
				core.Req{Region: p.Subregions[i], Field: up, Priv: privilege.Writes()},
				core.Req{Region: g.Subregions[i], Field: down, Priv: privilege.Reduces(privilege.OpSum)})
		}
		for i := 0; i < 3; i++ {
			s.Launch("t2",
				core.Req{Region: p.Subregions[i], Field: down, Priv: privilege.Writes()},
				core.Req{Region: g.Subregions[i], Field: up, Priv: privilege.Reduces(privilege.OpSum)})
		}
	}
	if err := core.Verify(s, testutil.FullInit(tree), core.HashKernel{}, allFactories()...); err != nil {
		t.Fatal(err)
	}
}

// TestRandomStreamsAllAnalyzers is the main property test: on dozens of
// random trees and task streams, every analyzer must materialize exactly
// the sequential values and preserve all exact dependences.
func TestRandomStreamsAllAnalyzers(t *testing.T) {
	rng := rand.New(rand.NewSource(20230225))
	iters := 40
	if testing.Short() {
		iters = 8
	}
	for it := 0; it < iters; it++ {
		tree := harness.ChaosTree(rng)
		stream := harness.ChaosStream(rng, tree, 12+rng.Intn(20))
		if err := core.Verify(stream, testutil.FullInit(tree), core.HashKernel{}, allFactories()...); err != nil {
			t.Fatalf("iteration %d: %v", it, err)
		}
	}
}

// TestAnalyzersAgreeOnDeps spot-checks that the four analyzers produce
// orderings that are mutually consistent: each one's reported DAG closure
// must contain the exact dependences (checked in Verify) — here we
// additionally require that no analyzer orders two tasks that the exact
// analysis proves independent *in both directions* over a write-heavy
// stream, i.e. analyzers do not serialize obviously-parallel work.
func TestAnalyzersAgreeOnDeps(t *testing.T) {
	tree, p, _ := testutil.GraphTree()
	up, _ := tree.Fields.Lookup("up")
	s := core.NewStream(tree)
	// Three disjoint writes: must remain parallel under every analyzer.
	for i := 0; i < 3; i++ {
		s.Launch("w", core.Req{Region: p.Subregions[i], Field: up, Priv: privilege.Writes()})
	}
	for _, fac := range allFactories() {
		an := fac.New(tree)
		var got [][]int
		for _, task := range s.Tasks {
			got = append(got, an.Analyze(task).Deps)
		}
		c := core.NewClosure(got)
		for a := 0; a < 3; a++ {
			for b := 0; b < 3; b++ {
				if a != b && c.Reaches(a, b) {
					t.Errorf("%s: serialized disjoint writes %d -> %d", fac.Name, a, b)
				}
			}
		}
	}
}
