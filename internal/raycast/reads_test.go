package raycast_test

import (
	"slices"
	"testing"

	"visibility/internal/apps"
	"visibility/internal/apps/circuit"
	"visibility/internal/apps/stencil"
	"visibility/internal/core"
	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/index"
	"visibility/internal/privilege"
	"visibility/internal/raycast"
	"visibility/internal/region"
)

// TestReadRecordsFootprint walks one read through the sets it covers in
// part. The read leaves both pieces' sets whole and plans exactly its own
// points; a write and a reduction that later cut those sets keep the read
// only in the fragments it touched, so a write to a fragment outside it
// does not order after it.
func TestReadRecordsFootprint(t *testing.T) {
	span := func(lo, hi int64) index.Space { return index.FromRect(geometry.R1(lo, hi)) }
	fs := field.NewSpace()
	f := fs.Add("f")
	tree := region.NewTree("root", span(0, 9), fs)
	p := tree.Root.Partition("P", []index.Space{span(0, 4), span(5, 9)}) // the buckets
	q := tree.Root.Partition("Q", []index.Space{span(3, 7)}).Subregions[0]
	w := tree.Root.Partition("W", []index.Space{span(0, 2), span(3, 4), span(8, 9)}).Subregions
	rc := raycast.New(tree, core.Options{})
	s := core.NewStream(tree)
	launch := func(r *region.Region, priv privilege.Privilege, sets int, deps ...int) *core.Result {
		t.Helper()
		task := s.Launch("t", core.Req{Region: r, Field: f, Priv: priv})
		res := analyze(t, rc, task)
		if !slices.Equal(res.Deps, deps) || rc.EquivalenceSets(f) != sets {
			t.Fatalf("task %d: deps %v over %d sets, want %v over %d", task.ID, res.Deps, rc.EquivalenceSets(f), deps, sets)
		}
		return res
	}
	launch(p.Subregions[0], privilege.Writes(), 2)
	launch(p.Subregions[1], privilege.Writes(), 2)
	res := launch(q, privilege.Reads(), 2, 0, 1) // task 2 covers part of both sets
	var planned []index.Space
	for _, v := range res.Plans[0] {
		planned = append(planned, v.Pts)
	}
	if got := index.UnionAll(1, planned); len(planned) != 2 || !got.Equal(q.Space) {
		t.Fatalf("the read plans %v, want its own points %v in two entries", planned, q.Space)
	}
	launch(w[0], privilege.Writes(), 3, 0)                  // cuts [0..2] off where the read never was
	launch(w[1], privilege.Writes(), 3, 0, 2)               // [3..4] is the read's
	launch(w[2], privilege.Reduces(privilege.OpSum), 4, 1)  // cuts [8..9] off the read's [5..9]
	launch(w[2], privilege.Writes(), 4, 1, 5)               // the reduction's fragment holds no read
	launch(p.Subregions[1], privilege.Writes(), 3, 1, 2, 6) // [5..7] still holds the read
}

// created is what one launch's requirements should add to
// core.Stats.SetsCreated under ray casting's rule: a write or a reduction
// cuts every live set it covers in part in two, a read cuts nothing, and a
// write's commit creates one fresh set per piece of the bucketing
// partition its region overlaps.
type created struct{ writeCuts, reduceCuts, fresh int64 }

func (c created) total() int64 { return c.writeCuts + c.reduceCuts + c.fresh }

func expectCreated(t *testing.T, rc *raycast.RayCast, task *core.Task) created {
	t.Helper()
	var c created
	spaces := make(map[field.ID][]index.Space)
	for _, req := range task.Reqs {
		r := req.Region.Space
		if r.IsEmpty() || req.Priv.IsRead() {
			continue
		}
		sets, ok := spaces[req.Field]
		if !ok {
			sets = rc.SetSpaces(req.Field)
		}
		var next []index.Space
		for _, sp := range sets {
			if !sp.Overlaps(r) || r.Covers(sp) {
				next = append(next, sp)
				continue
			}
			in, out := sp.Split(r)
			next = append(next, in, out)
			if req.Priv.IsWrite() {
				c.writeCuts += 2
			} else {
				c.reduceCuts += 2
			}
		}
		spaces[req.Field] = next
		if req.Priv.IsWrite() {
			p := rc.CurrentPartition(req.Field)
			if p == nil {
				t.Fatalf("%v: field %d is not bucketed by a partition", task, req.Field)
			}
			for _, piece := range p.Subregions {
				if piece.Space.Overlaps(r) {
					c.fresh++
				}
			}
		}
	}
	return c
}

// TestReadsDoNotCut pins where ray casting's sets come from in a steady
// iteration at 16 nodes. Launch by launch, SetsCreated grows by exactly
// what writes and reductions cut and what writes create: a read that
// covers part of a set leaves it whole. On stencil every set comes from a
// write's commit; on circuit only the reductions cut. An iteration creates
// as many sets at iteration 50 as at iteration 5.
func TestReadsDoNotCut(t *testing.T) {
	for _, app := range []struct {
		name       string
		build      apps.Builder
		reductions bool // whether a steady iteration's reductions cut
	}{{"stencil", stencil.New, false}, {"circuit", circuit.New, true}} {
		inst := app.build(16)
		rc := raycast.New(inst.Tree, core.Options{})
		stream := core.NewStream(inst.Tree)
		var at [2]created
		for iter := 0; iter <= 50; iter++ {
			batch := inst.Emit(stream, iter)
			w := -1
			switch iter {
			case 5:
				w = 0
			case 50:
				w = 1
			}
			for _, l := range batch {
				if w < 0 {
					rc.Analyze(l.Task)
					continue
				}
				want := expectCreated(t, rc, l.Task)
				before := rc.Stats().SetsCreated
				rc.Analyze(l.Task)
				if got := rc.Stats().SetsCreated - before; got != want.total() {
					t.Fatalf("%s iteration %d, %v: %d sets created, want %+v", app.name, iter, l.Task, got, want)
				}
				at[w].writeCuts += want.writeCuts
				at[w].reduceCuts += want.reduceCuts
				at[w].fresh += want.fresh
			}
		}
		if at[0] != at[1] {
			t.Errorf("%s: sets created at iteration 5 %+v, at iteration 50 %+v", app.name, at[0], at[1])
		}
		if c := at[1]; c.writeCuts != 0 || (c.reduceCuts > 0) != app.reductions || c.fresh == 0 {
			t.Errorf("%s: a steady iteration's sets %+v; want writes to cut none and reductions to cut %v", app.name, c, app.reductions)
		}
		t.Logf("%s: per steady iteration %+v sets", app.name, at[1])
	}
}
