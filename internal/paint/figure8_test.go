package paint_test

import (
	"testing"

	"visibility/internal/core"
	"visibility/internal/paint"
	"visibility/internal/testutil"
)

// TestFigure8CompositeViews reproduces the composite-view evolution of
// Figure 8 on the Figure 5 task stream. Tasks t0-t2 record directly into
// the primary partition's subregion histories (no views); t3, the first
// ghost-partition reduction, forces a composite view of the written subtree
// per touched field; t4 and t5 use the same reduction operator and add no
// views; t6, the first write of the second iteration, snapshots the
// ghost subtree.
func TestFigure8CompositeViews(t *testing.T) {
	tree, p, g := testutil.GraphTree()
	s := core.NewStream(tree)
	tasks := testutil.Figure5(s, p, g)

	pa := paint.NewPainter(tree, core.Options{})
	// Cumulative composite views expected after each task. Each phase
	// boundary creates one view per field touched across the boundary
	// (up and down are symmetric, so counts double Figure 8's
	// one-field illustration).
	wantViews := []int64{0, 0, 0, 2, 2, 2, 4, 4, 4}
	for i, task := range tasks {
		pa.Analyze(task)
		if got := pa.Stats().ViewsCreated; got != wantViews[i] {
			t.Errorf("after t%d: ViewsCreated = %d, want %d", i, got, wantViews[i])
		}
	}

	// Further iterations of the loop keep creating exactly two views per
	// phase boundary (the prior phase's subtree) — no unbounded growth per
	// launch.
	before := pa.Stats().ViewsCreated
	for i := 0; i < 3; i++ {
		pa.Analyze(testutil.LaunchT2(s, p, g, i))
	}
	afterT2 := pa.Stats().ViewsCreated
	if afterT2-before != 2 {
		t.Errorf("second t2 phase created %d views, want 2", afterT2-before)
	}
}

// TestPainterOcclusionPruning verifies that a full write of a region
// discards that region's accumulated history items.
func TestPainterOcclusionPruning(t *testing.T) {
	tree, p, g := testutil.GraphTree()
	s := core.NewStream(tree)
	pa := paint.NewPainter(tree, core.Options{})

	// Three loop iterations: without pruning, each subregion's history
	// would accumulate one write per iteration.
	for iter := 0; iter < 3; iter++ {
		for i := 0; i < 3; i++ {
			pa.Analyze(testutil.LaunchT1(s, p, g, i))
		}
		for i := 0; i < 3; i++ {
			pa.Analyze(testutil.LaunchT2(s, p, g, i))
		}
	}
	if pa.Stats().ItemsPruned == 0 {
		t.Error("expected occlusion pruning over repeated writes")
	}
}

// TestNaiveAndPainterAgree runs both painter variants over the Figure 5
// stream and checks they report ordering-equivalent dependences and that
// the optimized variant scans far fewer entries on a long stream.
func TestNaiveAndPainterAgree(t *testing.T) {
	tree, p, g := testutil.GraphTree()
	s := core.NewStream(tree)
	na := paint.NewNaive(tree)
	pa := paint.NewPainter(tree, core.Options{})

	var naiveDeps, paintDeps [][]int
	for iter := 0; iter < 6; iter++ {
		for i := 0; i < 3; i++ {
			task := testutil.LaunchT1(s, p, g, i)
			naiveDeps = append(naiveDeps, na.Analyze(task).Deps)
			paintDeps = append(paintDeps, pa.Analyze(task).Deps)
		}
		for i := 0; i < 3; i++ {
			task := testutil.LaunchT2(s, p, g, i)
			naiveDeps = append(naiveDeps, na.Analyze(task).Deps)
			paintDeps = append(paintDeps, pa.Analyze(task).Deps)
		}
	}
	exact := core.ExactDeps(s.Tasks)
	if err := core.CheckSound(naiveDeps, exact); err != nil {
		t.Errorf("naive: %v", err)
	}
	if err := core.CheckSound(paintDeps, exact); err != nil {
		t.Errorf("painter: %v", err)
	}
	// The naive painter's scan cost grows quadratically with the stream;
	// the region-tree variant prunes occluded history and must scan fewer
	// entries.
	if pa.Stats().EntriesScanned >= na.Stats().EntriesScanned {
		t.Errorf("optimized painter scanned %d entries, naive %d — expected a reduction",
			pa.Stats().EntriesScanned, na.Stats().EntriesScanned)
	}
}
