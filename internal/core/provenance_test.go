package core

import "testing"

// TestProvenancePastTable: the reason table is dense by consumer ID, and
// asking about an ID it does not reach — negative, past its end, or a hole
// below it — answers empty without growing it.
func TestProvenancePastTable(t *testing.T) {
	p := NewProvenance()
	p.AddReason(EdgeReason{Src: 0, Dst: 2, Kind: ReasonFuture, Trace: -1})
	for _, id := range []int{-1, 1, 3, 1 << 20} {
		if rs, n := p.Reasons(id), p.ReasonCount(id); len(rs) != 0 || n != 0 {
			t.Errorf("task %d: Reasons %v, ReasonCount %d; want both empty", id, rs, n)
		}
	}
	if len(p.reasons) != 3 {
		t.Fatalf("queries grew the table to %d slots, want 3", len(p.reasons))
	}
	if rs := p.Reasons(2); len(rs) != 1 || rs[0].Src != 0 {
		t.Fatalf("Reasons(2) = %v, want the one future edge", rs)
	}
}
