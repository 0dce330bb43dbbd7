package warnock_test

import (
	"reflect"
	"testing"

	"visibility/internal/core"
	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/index"
	"visibility/internal/privilege"
	"visibility/internal/region"
	"visibility/internal/warnock"
)

// TestSplitFragmentsKeepSharedHistory pins the ownership rule a write's
// history reuse rests on: the fragments of a split share their parent's
// history, so a write to one fragment must leave the other's entries
// alone, even when the parent's array has room to spare. The root set's
// history is a write and a read with spare capacity when the write to
// P[0] splits it; a reduction then extends P[1]'s fragment, and a read of
// P[1] must still see the first write and the reduction.
func TestSplitFragmentsKeepSharedHistory(t *testing.T) {
	fs := field.NewSpace()
	f := fs.Add("v")
	tree := region.NewTree("A", index.FromRect(geometry.R1(0, 9)), fs)
	p := tree.Root.Partition("P", []index.Space{index.FromRect(geometry.R1(0, 4)), index.FromRect(geometry.R1(5, 9))})
	s := core.NewStream(tree)
	at := func(r *region.Region, priv privilege.Privilege) core.Req {
		return core.Req{Region: r, Field: f, Priv: priv}
	}
	first := s.Launch("write", at(tree.Root, privilege.Writes()))
	s.Launch("read", at(tree.Root, privilege.Reads()))
	s.Launch("split", at(p.Subregions[0], privilege.Writes()))
	sum := s.Launch("reduce", at(p.Subregions[1], privilege.Reduces(privilege.OpSum)))
	last := s.Launch("read", at(p.Subregions[1], privilege.Reads()))

	w := warnock.New(tree, core.Options{})
	var res *core.Result
	for _, task := range s.Tasks {
		res = w.Analyze(task)
	}
	piece := p.Subregions[1].Space
	want := &core.Result{
		Deps: []int{first.ID, sum.ID},
		Plans: [][]core.Visible{{
			{Task: first.ID, Priv: privilege.Writes(), Pts: piece},
			{Task: sum.ID, Priv: privilege.Reduces(privilege.OpSum), Pts: piece},
		}},
	}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("task %d reads P[1] through\n%+v\nwant\n%+v", last.ID, res, want)
	}
}
