package graph_test

import (
	"strings"
	"testing"

	"visibility/internal/core"
	"visibility/internal/graph"
	"visibility/internal/privilege"
	"visibility/internal/raycast"
	"visibility/internal/testutil"
)

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
	if err := d.WriteDOT(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"digraph deps", "t0 [label=", "-> t6;", "}"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}
