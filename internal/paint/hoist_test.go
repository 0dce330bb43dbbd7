package paint_test

import (
	"testing"

	"visibility/internal/core"
	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/index"
	"visibility/internal/paint"
	"visibility/internal/privilege"
	"visibility/internal/region"
	"visibility/internal/testutil"
)

// TestNoViewForDisjointSiblings: tasks on disjoint subregions of one
// partition never force composite views.
func TestNoViewForDisjointSiblings(t *testing.T) {
	fs := field.NewSpace()
	fs.Add("v")
	tree := region.NewTree("A", index.FromRect(geometry.R1(0, 29)), fs)
	p := tree.Root.Partition("P", []index.Space{
		index.FromRect(geometry.R1(0, 9)),
		index.FromRect(geometry.R1(10, 19)),
		index.FromRect(geometry.R1(20, 29)),
	})
	pa := paint.NewPainter(tree, core.Options{})
	s := core.NewStream(tree)
	for round := 0; round < 4; round++ {
		for i := 0; i < 3; i++ {
			pa.Analyze(s.Launch("w", core.Req{Region: p.Subregions[i], Field: 0, Priv: privilege.Writes()}))
		}
	}
	if pa.Stats().ViewsCreated != 0 {
		t.Errorf("disjoint writes created %d views, want 0", pa.Stats().ViewsCreated)
	}
}

// TestSummarySkipsNonInterfering: same-operator reductions through an
// aliased partition do not hoist one another's histories, but a different
// operator does.
func TestSummarySkipsNonInterfering(t *testing.T) {
	tree, _, g := testutil.GraphTree()
	pa := paint.NewPainter(tree, core.Options{})
	s := core.NewStream(tree)
	for i := 0; i < 3; i++ {
		pa.Analyze(s.Launch("red", core.Req{Region: g.Subregions[i], Field: 0, Priv: privilege.Reduces(privilege.OpSum)}))
	}
	if pa.Stats().ViewsCreated != 0 {
		t.Fatalf("same-op reductions created %d views, want 0", pa.Stats().ViewsCreated)
	}
	// A min-reduction interferes with the recorded sum-reductions.
	pa.Analyze(s.Launch("min", core.Req{Region: g.Subregions[0], Field: 0, Priv: privilege.Reduces(privilege.OpMin)}))
	if pa.Stats().ViewsCreated == 0 {
		t.Error("different-op reduction should have hoisted a view")
	}
}

// TestRootTaskHoistsEverything: a task on the root region snapshots every
// open interfering subtree.
func TestRootTaskHoistsEverything(t *testing.T) {
	tree, p, g := testutil.GraphTree()
	pa := paint.NewPainter(tree, core.Options{})
	s := core.NewStream(tree)
	for i := 0; i < 3; i++ {
		pa.Analyze(s.Launch("w", core.Req{Region: p.Subregions[i], Field: 0, Priv: privilege.Writes()}))
		pa.Analyze(s.Launch("r", core.Req{Region: g.Subregions[i], Field: 0, Priv: privilege.Reads()}))
	}
	before := pa.Stats().ViewsCreated
	res := pa.Analyze(s.Launch("root", core.Req{Region: tree.Root, Field: 0, Priv: privilege.Writes()}))
	// The P subtree was already hoisted by the interleaved ghost reads;
	// the root write must hoist the still-open G subtree (the reads).
	if pa.Stats().ViewsCreated-before != 1 {
		t.Errorf("root write created %d views, want 1 (the open read subtree)", pa.Stats().ViewsCreated-before)
	}
	// And the root write depends on all six prior tasks.
	if len(res.Deps) != 6 {
		t.Errorf("root write deps = %v, want all six tasks", res.Deps)
	}
}

// TestWriteClearsLeafHistory: repeated writes to one region keep its
// history at length one.
func TestWriteClearsLeafHistory(t *testing.T) {
	tree, p, _ := testutil.GraphTree()
	pa := paint.NewPainter(tree, core.Options{})
	s := core.NewStream(tree)
	for i := 0; i < 10; i++ {
		pa.Analyze(s.Launch("w", core.Req{Region: p.Subregions[0], Field: 0, Priv: privilege.Writes()}))
	}
	// Each write after the first prunes exactly the previous one.
	if got := pa.Stats().ItemsPruned; got != 9 {
		t.Errorf("ItemsPruned = %d, want 9", got)
	}
	// Dependences stay single-edge: each write depends only on its
	// predecessor.
	res := pa.Analyze(s.Launch("w", core.Req{Region: p.Subregions[0], Field: 0, Priv: privilege.Writes()}))
	if len(res.Deps) != 1 || res.Deps[0] != 9 {
		t.Errorf("deps = %v, want [9]", res.Deps)
	}
}

// TestNaivePainterNeverPrunes: the executable specification keeps the full
// history forever, and its dependence lists grow accordingly.
func TestNaivePainterNeverPrunes(t *testing.T) {
	tree, p, _ := testutil.GraphTree()
	na := paint.NewNaive(tree)
	s := core.NewStream(tree)
	var last *core.Result
	for i := 0; i < 8; i++ {
		last = na.Analyze(s.Launch("w", core.Req{Region: p.Subregions[0], Field: 0, Priv: privilege.Writes()}))
	}
	// The naive painter reports a dependence on every prior conflicting
	// task, not just the latest.
	if len(last.Deps) != 7 {
		t.Errorf("naive deps = %v, want all 7 predecessors", last.Deps)
	}
	if na.Stats().ItemsPruned != 0 {
		t.Error("naive painter must not prune")
	}
}
