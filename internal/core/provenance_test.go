package core_test

import (
	"testing"

	"visibility/internal/core"
	"visibility/internal/geometry"
	"visibility/internal/privilege"
)

// TestRegionReason derives reasons on a hand-built stream: the overlap is
// what survives the writes between Src and Dst, a reduction occludes
// nothing, a later interfering pair is taken when the first has no live
// point, and an edge whose every shared point was overwritten keeps the
// smallest pair with an empty overlap.
func TestRegionReason(t *testing.T) {
	tree, p := lineTree(12, 3) // blocks [0..3] [4..7] [8..11]
	s := core.NewStream(tree)
	w := privilege.Writes()
	s.Launch("w", core.Req{Region: tree.Root, Field: 0, Priv: w})                                          // 0
	s.Launch("w", core.Req{Region: p.Subregions[0], Field: 0, Priv: w})                                    // 1
	s.Launch("sum", core.Req{Region: p.Subregions[1], Field: 0, Priv: privilege.Reduces(privilege.OpSum)}) // 2
	s.Launch("w", core.Req{Region: p.Subregions[2], Field: 1, Priv: w})                                    // 3: other field
	s.Launch("r", core.Req{Region: p.Subregions[0], Field: 0, Priv: privilege.Reads()},
		core.Req{Region: tree.Root, Field: 0, Priv: privilege.Reads()}) // 4

	if si, di, overlap := core.RegionReason(s.Tasks, 0, 4); si != 0 || di != 1 || overlap != geometry.R1(4, 11) {
		t.Errorf("0→4 = %d/%d over %v; want req 1 over [4..11] (req 0's block was overwritten by task 1)", si, di, overlap)
	}

	s.Launch("w", core.Req{Region: tree.Root, Field: 0, Priv: w})                 // 5
	s.Launch("r", core.Req{Region: tree.Root, Field: 0, Priv: privilege.Reads()}) // 6
	if si, di, overlap := core.RegionReason(s.Tasks, 0, 6); si != 0 || di != 0 || !overlap.Empty() {
		t.Errorf("0→6 = %d/%d over %v; want the witness-less pair 0/0 with an empty overlap", si, di, overlap)
	}
	if si, di, overlap := core.RegionReason(s.Tasks, 3, 6); si != -1 {
		t.Errorf("3→6 share no field, got %d/%d over %v", si, di, overlap)
	}
}
