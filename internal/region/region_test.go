package region

import (
	"strings"
	"testing"

	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/index"
)

func newNodeTree(t *testing.T) (*Tree, *Partition, *Partition) {
	t.Helper()
	fs := field.NewSpace()
	fs.Add("up")
	fs.Add("down")
	tree := NewTree("N", index.FromRect(geometry.R1(0, 11)), fs)

	// Primary: disjoint, complete blocks of 4.
	primary := tree.Root.Partition("P", []index.Space{
		index.FromRect(geometry.R1(0, 3)),
		index.FromRect(geometry.R1(4, 7)),
		index.FromRect(geometry.R1(8, 11)),
	})
	// Ghost: aliased halos of width 3 on a ring (as in Fig. 2(b), some
	// elements belong to more than one ghost subregion).
	ghost := tree.Root.Partition("G", []index.Space{
		index.FromRects(1, geometry.R1(4, 6), geometry.R1(9, 11)),
		index.FromRects(1, geometry.R1(1, 3), geometry.R1(8, 10)),
		index.FromRects(1, geometry.R1(0, 2), geometry.R1(5, 7)),
	})
	return tree, primary, ghost
}

func TestPartitionProperties(t *testing.T) {
	_, primary, ghost := newNodeTree(t)
	if !primary.Disjoint || !primary.Complete || !primary.DisjointComplete() {
		t.Errorf("primary should be disjoint+complete: %v", primary)
	}
	if ghost.Disjoint {
		t.Errorf("ghost should be aliased: %v", ghost)
	}
	if !ghost.Complete {
		// G covers 0..11 here by construction; verify the computed value
		// matches the actual contents rather than assuming.
		union := index.Empty(1)
		for _, s := range ghost.Subregions {
			union = union.Union(s.Space)
		}
		if union.Equal(index.FromRect(geometry.R1(0, 11))) {
			t.Errorf("ghost covers the root but Complete=false")
		}
	}
}

func TestIncompletePartition(t *testing.T) {
	fs := field.NewSpace()
	fs.Add("v")
	tree := NewTree("A", index.FromRect(geometry.R1(0, 9)), fs)
	p := tree.Root.Partition("Q", []index.Space{
		index.FromRect(geometry.R1(0, 3)),
		index.FromRect(geometry.R1(6, 9)),
	})
	if !p.Disjoint {
		t.Error("Q should be disjoint")
	}
	if p.Complete {
		t.Error("Q should be incomplete (4..5 uncovered)")
	}
}

func TestPathAndAncestry(t *testing.T) {
	tree, primary, _ := newNodeTree(t)
	p1 := primary.Subregions[1]

	path := p1.Path()
	if len(path) != 2 || path[0] != tree.Root || path[1] != p1 {
		t.Errorf("Path = %v", path)
	}
	if !tree.Root.IsAncestorOf(p1) {
		t.Error("root should be ancestor of P[1]")
	}
	if p1.IsAncestorOf(tree.Root) {
		t.Error("P[1] is not ancestor of root")
	}
	if p1.IsAncestorOf(p1) {
		t.Error("ancestry is strict")
	}
	if p1.ParentRegion() != tree.Root {
		t.Error("ParentRegion wrong")
	}
	if !tree.Root.IsRoot() || p1.IsRoot() {
		t.Error("IsRoot wrong")
	}

	// Nested partition.
	nested := p1.Partition("PP", []index.Space{
		index.FromRect(geometry.R1(4, 5)),
		index.FromRect(geometry.R1(6, 7)),
	})
	leaf := nested.Subregions[0]
	if got := leaf.Path(); len(got) != 3 || got[1] != p1 {
		t.Errorf("nested Path = %v", got)
	}
	if !tree.Root.IsAncestorOf(leaf) || !p1.IsAncestorOf(leaf) {
		t.Error("nested ancestry wrong")
	}
}

func TestRegionLookupAndCounts(t *testing.T) {
	tree, primary, ghost := newNodeTree(t)
	if tree.NumRegions() != 7 { // root + 3 + 3
		t.Errorf("NumRegions = %d", tree.NumRegions())
	}
	if tree.NumPartitions() != 2 {
		t.Errorf("NumPartitions = %d", tree.NumPartitions())
	}
	if tree.Region(primary.Subregions[2].ID) != primary.Subregions[2] {
		t.Error("Region lookup by ID failed")
	}
	if tree.Region(ghost.Subregions[0].ID) != ghost.Subregions[0] {
		t.Error("Region lookup by ID failed")
	}
	if tree.Root.Partitions[0] != primary || tree.Root.Partitions[1] != ghost {
		t.Error("partition order wrong")
	}
}

func TestPartitionOutOfBoundsPanics(t *testing.T) {
	fs := field.NewSpace()
	fs.Add("v")
	tree := NewTree("A", index.FromRect(geometry.R1(0, 9)), fs)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-bounds piece")
		}
	}()
	tree.Root.Partition("bad", []index.Space{index.FromRect(geometry.R1(5, 15))})
}

func TestEmptyPieceAllowed(t *testing.T) {
	fs := field.NewSpace()
	fs.Add("v")
	tree := NewTree("A", index.FromRect(geometry.R1(0, 9)), fs)
	p := tree.Root.Partition("sparse", []index.Space{
		index.Empty(1),
		index.FromRect(geometry.R1(0, 9)),
	})
	if !p.Disjoint || !p.Complete {
		t.Errorf("empty piece should not break disjoint/complete: %v", p)
	}
}

func TestPartitionAt(t *testing.T) {
	tree, primary, ghost := newNodeTree(t)
	if tree.PartitionAt(0) != primary || tree.PartitionAt(1) != ghost {
		t.Error("PartitionAt order should be creation order")
	}
}

func TestPartitionSpace(t *testing.T) {
	_, primary, ghost := newNodeTree(t)
	if !primary.Space().Equal(index.FromRect(geometry.R1(0, 11))) {
		t.Errorf("primary space = %v", primary.Space())
	}
	if ghost.Space().IsEmpty() {
		t.Error("ghost space empty")
	}
}

func TestTreePrint(t *testing.T) {
	tree, _, _ := newNodeTree(t)
	var b strings.Builder
	if err := tree.Print(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"N  [0..11] (|12|)", "△ P (disjoint, complete) ×3", "△ G (aliased", "P[2]", "G[0]"} {
		if !strings.Contains(out, want) {
			t.Errorf("Print output missing %q:\n%s", want, out)
		}
	}
}

func TestStringers(t *testing.T) {
	tree, primary, ghost := newNodeTree(t)
	if !strings.Contains(primary.String(), "disjoint,complete") {
		t.Errorf("primary String = %q", primary.String())
	}
	if !strings.Contains(ghost.String(), "aliased") {
		t.Errorf("ghost String = %q", ghost.String())
	}
	if !strings.Contains(tree.Root.String(), "N") {
		t.Errorf("region String = %q", tree.Root.String())
	}
}
