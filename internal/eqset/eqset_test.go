package eqset_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"visibility/internal/core"
	"visibility/internal/eqset"
	"visibility/internal/fault"
	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/index"
	"visibility/internal/privilege"
	"visibility/internal/raycast"
	"visibility/internal/region"
	"visibility/internal/testutil"
	"visibility/internal/warnock"
)

type (
	set  = eqset.Set[int]
	part = eqset.Part[int]
)

func span(lo, hi int64) index.Space { return index.FromRect(geometry.R1(lo, hi)) }

// reg is a free-standing region: the kernel reads only its ID and Space.
func reg(id int, sp index.Space) *region.Region { return &region.Region{ID: id, Space: sp} }

func mustInjector(t *testing.T, plan string) *fault.Injector {
	t.Helper()
	inj, err := fault.NewFromString(plan)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// TestSplit pins the kernel's one refinement rule.
func TestSplit(t *testing.T) {
	hist := []core.Entry{{Task: core.InitialTask, Priv: privilege.Writes()}, {Task: 3, Priv: privilege.Reads()}}
	const always = "seed=1;analyzer.eqset.split=every=1"
	tests := []struct {
		name   string
		plan   string // fault plan; "" for none
		pts    index.Space
		sp     index.Space
		split  bool
		forced bool
	}{
		{name: "covered set stays whole", pts: span(2, 5), sp: span(0, 9)},
		{name: "equal set stays whole", pts: span(2, 5), sp: span(2, 5)},
		{name: "straddling set splits", pts: span(2, 5), sp: span(4, 9), split: true},
		{name: "enclosing set splits", pts: span(0, 9), sp: span(4, 5), split: true},
		{name: "interleaved multi-rectangle set and region split",
			pts:   index.FromRects(1, geometry.R1(0, 3), geometry.R1(6, 9), geometry.R1(12, 15), geometry.R1(20, 22)),
			sp:    index.FromRects(1, geometry.R1(2, 7), geometry.R1(9, 12), geometry.R1(14, 18), geometry.R1(30, 40)),
			split: true},
		{name: "multi-rectangle set covered by a multi-rectangle region stays whole",
			pts: index.FromRects(1, geometry.R1(0, 3), geometry.R1(6, 9), geometry.R1(12, 15)),
			sp:  index.FromRects(1, geometry.R1(0, 4), geometry.R1(6, 15))},
		{name: "armed injector splits a covered set", plan: always, pts: span(2, 5), sp: span(0, 9), split: true, forced: true},
		{name: "armed injector leaves a one-point set whole", plan: always, pts: span(4, 4), sp: span(0, 9)},
		{name: "armed injector does not touch a straddling set", plan: always, pts: span(2, 5), sp: span(4, 9), split: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			opts := core.Options{}
			if tt.plan != "" {
				opts.Faults = mustInjector(t, tt.plan)
			}
			k := eqset.New[int](nil, opts, nil)
			s := &set{G: &eqset.Node{Pts: tt.pts}, Hist: hist, At: 7}
			in, rest, forced := k.Split(s, s.G.Cut(reg(1, tt.sp)))
			if forced != tt.forced {
				t.Errorf("forced = %v, want %v", forced, tt.forced)
			}
			if !tt.split {
				if in != s || rest != nil || s.Dead || k.Stats.SetsCreated != 0 {
					t.Fatalf("whole set: got in=%p rest=%v dead=%v created=%d, want the set itself untouched",
						in, rest, s.Dead, k.Stats.SetsCreated)
				}
				return
			}
			if rest == nil || in == s || !s.Dead || k.Stats.SetsCreated != 2 {
				t.Fatalf("split: got rest=%v dead=%v created=%d, want two fresh fragments of a dead parent",
					rest, s.Dead, k.Stats.SetsCreated)
			}
			if err := testutil.CheckPartitionInvariant([]index.Space{in.G.Pts, rest.G.Pts}, tt.pts); err != nil {
				t.Errorf("fragments do not partition the parent: %v", err)
			}
			if !tt.sp.Covers(in.G.Pts) {
				t.Errorf("in = %v escapes %v", in.G.Pts, tt.sp)
			}
			if tt.sp.Covers(rest.G.Pts) != tt.forced || (!tt.forced && rest.G.Pts.Overlaps(tt.sp)) {
				t.Errorf("rest = %v vs region %v, forced = %v", rest.G.Pts, tt.sp, tt.forced)
			}
			for _, f := range []*set{in, rest} {
				if len(f.Hist) != len(hist) || f.Hist[1].Task != 3 || f.At != 7 || f.Dead {
					t.Errorf("fragment %+v does not carry the parent's history and placement", f)
				}
			}
			// A second set wearing the parent's geometry is cut by the
			// same region into the very same nodes — unless the cut was
			// forced, which is not geometry and is never remembered.
			again, againRest, _ := eqset.New[int](nil, core.Options{}, nil).Split(&set{G: s.G, Hist: hist}, s.G.Cut(reg(1, tt.sp)))
			if remembered := againRest != nil && again.G == in.G && againRest.G == rest.G; remembered == tt.forced {
				t.Errorf("forced = %v, yet splitting the same geometry again found the same halves = %v", tt.forced, remembered)
			}
		})
	}
}

// TestOwnerResolvedOnce pins where a set's owner comes from: Opts.Owner is
// asked once per set, however often the set is touched, and the fragments
// of a split resolve their own points instead of inheriting the parent's
// answer.
func TestOwnerResolvedOnce(t *testing.T) {
	calls := 0
	k := eqset.New[int](nil, core.Options{Owner: func(sp index.Space) int {
		calls++
		return testutil.ShapeOwner(sp)
	}}, nil)
	s := &set{G: &eqset.Node{Pts: span(0, 9)}}
	for i := 0; i < 3; i++ {
		k.Touch(s, 1)
	}
	if calls != 1 || k.Owner(s.G) != testutil.ShapeOwner(s.G.Pts) {
		t.Fatalf("three touches: %d owner calls, owner %d; want 1 call, owner %d", calls, k.Owner(s.G), testutil.ShapeOwner(s.G.Pts))
	}
	for round := 0; round < 2; round++ { // the second set to wear the geometry finds the owners resolved
		in, rest, _ := k.Split(&set{G: s.G}, s.G.Cut(reg(1, span(4, 5))))
		for _, f := range []*set{in, rest} {
			if got, want := k.Owner(f.G), testutil.ShapeOwner(f.G.Pts); got != want {
				t.Errorf("fragment %v has owner %d, its points resolve to %d", f.G.Pts, got, want)
			}
		}
		if calls != 3 {
			t.Errorf("round %d: %d owner calls after the split, want 3: one per point set", round, calls)
		}
	}
}

// TestSplitSharesHistory pins copy-on-append: the halves of a split start
// on their parent's entries, and an append to either leaves the other
// half's, the parent's and a third reader's view of them unchanged.
func TestSplitSharesHistory(t *testing.T) {
	hist := make([]core.Entry, 2, 8) // spare capacity: an in-place append would be visible
	hist[0], hist[1] = core.Entry{Task: core.InitialTask, Priv: privilege.Writes()}, core.Entry{Task: 3, Priv: privilege.Reads()}
	k := eqset.New[int](nil, core.Options{}, nil)
	s := &set{G: &eqset.Node{Pts: span(0, 9)}, Hist: hist}
	in, rest, _ := k.Split(s, s.G.Cut(reg(1, span(4, 5))))
	if &in.Hist[0] != &hist[0] || &rest.Hist[0] != &hist[0] {
		t.Error("the halves copied the parent's history instead of sharing it")
	}
	reader := in.Hist
	in.Hist = append(in.Hist, core.Entry{Task: 7})
	rest.Hist = append(rest.Hist, core.Entry{Task: 8})
	rest.Hist = append(rest.Hist, core.Entry{Task: 9})
	for i, h := range [][]core.Entry{in.Hist[:2], rest.Hist[:2], s.Hist, reader, hist} {
		if len(h) != 2 || h[0].Task != core.InitialTask || h[1].Task != 3 {
			t.Errorf("view %d (in, rest, parent, reader, caller) no longer sees the shared prefix: %+v", i, h)
		}
	}
	if in.Hist[2].Task != 7 || len(in.Hist) != 3 || rest.Hist[2].Task != 8 || rest.Hist[3].Task != 9 || hist[:3][2].Task != 0 {
		t.Errorf("appends crossed: in %+v, rest %+v, parent's spare slot %+v", in.Hist[2:], rest.Hist[2:], hist[:3][2])
	}
}

// TestCarvedHistoriesDoNotCross pins the capacity clip on carved history
// arrays. The first appends to the halves of a split copy their shared
// history into adjacent carves of one chunk; appending to each past its
// carve's capacity, and overwriting one in place, must leave every other
// history — the other half's and the parent's — as it was.
func TestCarvedHistoriesDoNotCross(t *testing.T) {
	k := eqset.New[int](nil, core.Options{}, nil)
	s := eqset.Root[int](span(0, 9))
	in, rest, _ := k.Split(s, s.G.Cut(reg(1, span(4, 5))))
	want := map[*set][]int{s: {core.InitialTask}, in: {core.InitialTask}, rest: {core.InitialTask}}
	names := map[*set]string{s: "parent", in: "in", rest: "rest"}
	check := func(step string) {
		t.Helper()
		for f, tasks := range want {
			var got []int
			for _, e := range f.Hist {
				got = append(got, e.Task)
			}
			if !slices.Equal(got, tasks) {
				t.Fatalf("after %s: %s holds tasks %v, want %v", step, names[f], got, tasks)
			}
		}
	}
	task := 0
	push := func(f *set) {
		task++
		k.Append(f, core.Entry{Task: task, Priv: privilege.Reads()})
		want[f] = append(want[f], task)
		check(fmt.Sprintf("appending task %d to %s", task, names[f]))
	}

	push(in)
	push(rest)
	// Neighbours: rest's carve starts after in's, where in's capacity ends
	// (or before, were in's capacity not clipped).
	inStart := uintptr(unsafe.Pointer(unsafe.SliceData(in.Hist)))
	inEnd := inStart + uintptr(cap(in.Hist))*unsafe.Sizeof(core.Entry{})
	if restStart := uintptr(unsafe.Pointer(unsafe.SliceData(rest.Hist))); restStart <= inStart || restStart > inEnd {
		t.Fatal("the halves' first appends did not carve neighbouring arrays; the test checks nothing")
	}
	for _, f := range []*set{in, rest} {
		for c := cap(f.Hist); len(f.Hist) <= c; {
			push(f)
		}
	}
	in.Hist = k.Overwrite(in.Hist, core.Entry{Task: 100, Priv: privilege.Writes()})
	want[in] = []int{100}
	check("overwriting in")
	push(in)
	push(rest)
}

// flat is the smallest possible Store: one unindexed slice of live sets
// per field, writes resetting histories in place. It knows nothing of
// refinement beyond calling Split, so a sound analysis out of it shows the
// two-method contract is all the kernel needs. With readsWhole it cuts
// nothing for a read, as ray casting does, and hands the kernel each set
// the read overlaps whole, with the read's cut of it.
type flat struct {
	k          *eqset.Kernel[int]
	root       index.Space
	sets       map[field.ID][]*set
	readsWhole bool
}

func (f *flat) Refine(t *core.Task, ri int, _ bool, inside []part) []part {
	req := t.Reqs[ri]
	if f.sets[req.Field] == nil {
		f.sets[req.Field] = []*set{eqset.Root[int](f.root)}
	}
	var live []*set
	for _, s := range f.sets[req.Field] {
		switch c := s.G.Cut(req.Region); {
		case c.In == nil:
			live = append(live, s)
		case f.readsWhole && req.Priv.IsRead():
			live, inside = append(live, s), append(inside, part{S: s, Cut: c})
		default:
			in, rest, forced := f.k.Split(s, c)
			live, inside = append(live, in), append(inside, eqset.Whole(in))
			if rest != nil {
				live = append(live, rest)
			}
			if forced {
				inside = append(inside, eqset.Whole(rest))
			}
		}
	}
	f.sets[req.Field] = live
	return inside
}

func (f *flat) Write(t *core.Task, ri int, inside []part) {
	for _, p := range inside {
		p.S.Hist = []core.Entry{{Task: t.ID, Req: int32(ri), Priv: t.Reqs[ri].Priv}}
	}
}

func (f *flat) Name() string                      { return "flat" }
func (f *flat) Stats() *core.Stats                { return &f.k.Stats }
func (f *flat) Analyze(t *core.Task) *core.Result { return f.k.Analyze(t) }

func newFlat(tree *region.Tree, o core.Options, readsWhole bool) *flat {
	f := &flat{root: tree.Root.Space, sets: make(map[field.ID][]*set), readsWhole: readsWhole}
	f.k = eqset.New[int](tree, o, f)
	return f
}

// randTree builds a 1-D or 2-D root with a few random, freely aliased
// partitions.
func randTree(rng *rand.Rand) *region.Tree {
	fs := field.NewSpace()
	fs.Add("f0")
	fs.Add("f1")
	root := index.FromRect(geometry.R2(0, 0, 5, 3))
	if rng.Intn(2) == 0 {
		root = index.FromRect(geometry.R1(0, 23))
	}
	tree := region.NewTree("A", root, fs)
	b := root.Bounds()
	for pi := 1 + rng.Intn(3); pi > 0; pi-- {
		pieces := make([]index.Space, 2+rng.Intn(3))
		for i := range pieces {
			r := geometry.Rect{Dim: b.Dim}
			for a := 0; a < b.Dim; a++ {
				r.Lo.C[a] = b.Lo.C[a] + rng.Int63n(b.Hi.C[a]-b.Lo.C[a]+1)
				r.Hi.C[a] = r.Lo.C[a] + rng.Int63n(b.Hi.C[a]-r.Lo.C[a]+1)
			}
			pieces[i] = index.FromRect(r)
		}
		tree.Root.Partition("Q", pieces)
	}
	return tree
}

// randStream launches n tasks of one or two requirements on random
// regions, keeping a task's own requirements non-interfering (§4).
func randStream(rng *rand.Rand, tree *region.Tree, n int) *core.Stream {
	privs := []privilege.Privilege{privilege.Reads(), privilege.Writes(), privilege.Writes(),
		privilege.Reduces(privilege.OpSum), privilege.Reduces(privilege.OpMax)}
	s := core.NewStream(tree)
	for i := 0; i < n; i++ {
		var reqs []core.Req
		for nreq := 1 + rng.Intn(2); nreq > 0; nreq-- {
			req := core.Req{
				Region: tree.Region(rng.Intn(tree.NumRegions())),
				Field:  field.ID(rng.Intn(tree.Fields.Len())),
				Priv:   privs[rng.Intn(len(privs))],
			}
			ok := true
			for _, prev := range reqs {
				if prev.Field == req.Field && privilege.Interferes(prev.Priv, req.Priv) &&
					prev.Region.Space.Overlaps(req.Region.Space) {
					ok = false
				}
			}
			if ok {
				reqs = append(reqs, req)
			}
		}
		s.Launch("rand", reqs...)
	}
	return s
}

// TestFlatStoreIsSound drives the toy store, cutting and reading whole,
// through random trees and streams against the sequential interpreter and
// the exact dependence analysis, with and without forced splits.
func TestFlatStoreIsSound(t *testing.T) {
	for _, readsWhole := range []bool{false, true} {
		for _, plan := range []string{"", "seed=3;analyzer.eqset.split=every=2"} {
			rng := rand.New(rand.NewSource(13))
			for it := 0; it < 30; it++ {
				tree := randTree(rng)
				stream := randStream(rng, tree, 12+rng.Intn(20))
				var opts core.Options
				if plan != "" {
					opts.Faults = mustInjector(t, plan)
				}
				fac := core.Factory{Name: "flat", New: func(tree *region.Tree) core.Analyzer { return newFlat(tree, opts, readsWhole) }}
				if err := core.Verify(stream, testutil.FullInit(tree), core.HashKernel{}, fac); err != nil {
					t.Fatalf("reads whole %v, plan %q, iteration %d: %v", readsWhole, plan, it, err)
				}
				if plan != "" && opts.Faults.Fires(fault.EqSplit) == 0 {
					t.Fatalf("reads whole %v, plan %q, iteration %d: no split was forced", readsWhole, plan, it)
				}
			}
		}
	}
}

// TestFlatReadsWholeKeepsDeps holds a flat store that reads whole to the
// deps of one that cuts, launch for launch: a read's footprint must keep
// every later writer of the points it read, and only those, depending on
// it.
func TestFlatReadsWholeKeepsDeps(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for it := 0; it < 40; it++ {
		tree := randTree(rng)
		stream := randStream(rng, tree, 20+rng.Intn(30))
		whole, cut := newFlat(tree, core.Options{}, true), newFlat(tree, core.Options{}, false)
		for _, task := range stream.Tasks {
			if got, want := whole.Analyze(task).Deps, cut.Analyze(task).Deps; !slices.Equal(got, want) {
				t.Fatalf("iteration %d, task %v: reading whole gives deps %v, cutting %v", it, task, got, want)
			}
		}
	}
}

// TestSplitFaultArgument pins the eq.split site's argument, the covered
// set's volume, through both stores: a plan restricted to arg=N forces a
// split of exactly the covered sets of N points. Three rounds touch each
// piece of a partition whose pieces hold 2, 4 and 4 points (one of them
// two rectangles), so every piece is first cut from the root and then
// covered; a forced split leaves its piece tiled by two sets. Warnock's
// rounds read; ray casting's sum-reduce, since its reads cut nothing.
func TestSplitFaultArgument(t *testing.T) {
	fs := field.NewSpace()
	f := fs.Add("f")
	tree := region.NewTree("root", span(0, 9), fs)
	p := tree.Root.Partition("P", []index.Space{
		span(0, 1),
		index.FromRects(1, geometry.R1(2, 3), geometry.R1(8, 9)),
		span(4, 7),
	})
	for _, a := range []struct {
		name  string
		build func(*region.Tree, core.Options) core.Analyzer
		priv  privilege.Privilege
	}{
		{"warnock", func(tr *region.Tree, o core.Options) core.Analyzer { return warnock.New(tr, o) }, privilege.Reads()},
		{"raycast", func(tr *region.Tree, o core.Options) core.Analyzer { return raycast.New(tr, o) }, privilege.Reduces(privilege.OpSum)},
	} {
		name := a.name
		for n := int64(1); n <= 5; n++ {
			inj := mustInjector(t, fmt.Sprintf("seed=1;analyzer.eqset.split=every=1,arg=%d", n))
			an := a.build(tree, core.Options{Faults: inj})
			s := core.NewStream(tree)
			for round := 0; round < 3; round++ {
				for _, piece := range p.Subregions {
					an.Analyze(s.Launch("touch", core.Req{Region: piece, Field: f, Priv: a.priv}))
				}
			}
			sets := an.(interface{ SetSpaces(field.ID) []index.Space }).SetSpaces(f)
			var want int64
			for _, piece := range p.Subregions {
				tiles, split := 0, piece.Space.Volume() == n
				for _, sp := range sets {
					if piece.Space.Covers(sp) {
						tiles++
					}
				}
				if split {
					want++
				}
				if split && tiles != 2 || !split && tiles != 1 {
					t.Errorf("%s, arg=%d: piece %v of %d points is tiled by %d sets", name, n, piece.Space, piece.Space.Volume(), tiles)
				}
			}
			if got := inj.Fires(fault.EqSplit); got != want {
				t.Errorf("%s, arg=%d: %d forced splits, want %d", name, n, got, want)
			}
		}
	}
}
