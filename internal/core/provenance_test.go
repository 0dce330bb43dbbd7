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

	r, ok := core.RegionReason(s.Tasks, 0, 4, "raycast")
	if !ok || r.Kind != core.ReasonRegion || r.DstReq != 1 || r.SrcReq != 0 || r.Overlap != geometry.R1(4, 11) {
		t.Errorf("0→4 = %+v, %v; want req 1 over [4..11] (req 0's block was overwritten by task 1)", r, ok)
	}
	if r.Analyzer != "raycast" || r.Trace != -1 || !r.SrcPriv.Same(privilege.Writes()) || !r.DstPriv.Same(privilege.Reads()) {
		t.Errorf("0→4 = %+v: analyzer, trace or privileges wrong", r)
	}

	s.Launch("w", core.Req{Region: tree.Root, Field: 0, Priv: w})                 // 5
	s.Launch("r", core.Req{Region: tree.Root, Field: 0, Priv: privilege.Reads()}) // 6
	r, ok = core.RegionReason(s.Tasks, 0, 6, "paint")
	if ok || r.Kind != core.ReasonRegion || r.DstReq != 0 || r.SrcReq != 0 || !r.Overlap.Empty() {
		t.Errorf("0→6 = %+v, %v; want the witness-less pair 0/0 with an empty overlap", r, ok)
	}
	if r, _ := core.RegionReason(s.Tasks, 3, 6, "paint"); r.Kind != core.ReasonNone {
		t.Errorf("3→6 share no field, got %+v", r)
	}
}
