package eqset_test

import (
	"math/rand"
	"testing"

	"visibility/internal/core"
	"visibility/internal/eqset"
	"visibility/internal/fault"
	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/index"
	"visibility/internal/privilege"
	"visibility/internal/region"
	"visibility/internal/testutil"
)

type set = eqset.Set[int]

func span(lo, hi int64) index.Space { return index.FromRect(geometry.R1(lo, hi)) }

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
	hist := []core.Entry{core.SeedEntry(span(0, 9)), {Task: 3, Priv: privilege.Reads(), Pts: span(0, 9)}}
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
			k := eqset.New[int]("test", opts, nil)
			s := &set{Pts: tt.pts, Hist: hist, At: 7}
			in, rest, forced := k.Split(s, tt.sp)
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
			if err := testutil.CheckPartitionInvariant([]index.Space{in.Pts, rest.Pts}, tt.pts); err != nil {
				t.Errorf("fragments do not partition the parent: %v", err)
			}
			if !tt.sp.Covers(in.Pts) {
				t.Errorf("in = %v escapes %v", in.Pts, tt.sp)
			}
			if tt.sp.Covers(rest.Pts) != tt.forced || (!tt.forced && rest.Pts.Overlaps(tt.sp)) {
				t.Errorf("rest = %v vs region %v, forced = %v", rest.Pts, tt.sp, tt.forced)
			}
			for _, f := range []*set{in, rest} {
				if len(f.Hist) != len(hist) || f.Hist[1].Task != 3 || f.At != 7 || f.Dead {
					t.Errorf("fragment %+v does not carry the parent's history and placement", f)
				}
			}
			// The fragments' histories must not alias each other.
			in.Hist = append(in.Hist[:1], core.Entry{Task: 9})
			if rest.Hist[1].Task != 3 {
				t.Error("fragments share one history backing array")
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
	k := eqset.New[int]("test", core.Options{Owner: func(sp index.Space) int {
		calls++
		return testutil.ShapeOwner(sp)
	}}, nil)
	s := &set{Pts: span(0, 9)}
	for i := 0; i < 3; i++ {
		k.Touch(s, 1)
	}
	if calls != 1 || k.Owner(s) != testutil.ShapeOwner(s.Pts) {
		t.Fatalf("three touches: %d owner calls, owner %d; want 1 call, owner %d", calls, k.Owner(s), testutil.ShapeOwner(s.Pts))
	}
	in, rest, _ := k.Split(s, span(4, 5))
	for _, f := range []*set{in, rest} {
		if got, want := k.Owner(f), testutil.ShapeOwner(f.Pts); got != want {
			t.Errorf("fragment %v has owner %d, its points resolve to %d", f.Pts, got, want)
		}
	}
	if calls != 3 {
		t.Errorf("%d owner calls after the split, want 3: one per set", calls)
	}
}

// flat is the smallest possible Store: one unindexed slice of live sets
// per field, writes resetting histories in place. It knows nothing of
// refinement beyond calling Split, so a sound analysis out of it shows the
// two-method contract is all the kernel needs.
type flat struct {
	k    *eqset.Kernel[int]
	root index.Space
	sets map[field.ID][]*set
}

func (f *flat) Refine(t *core.Task, ri int, _ bool) []*set {
	req := t.Reqs[ri]
	if f.sets[req.Field] == nil {
		f.sets[req.Field] = []*set{{Pts: f.root, Hist: []core.Entry{core.SeedEntry(f.root)}}}
	}
	var live, inside []*set
	for _, s := range f.sets[req.Field] {
		if !s.Pts.Overlaps(req.Region.Space) {
			live = append(live, s)
			continue
		}
		in, rest, forced := f.k.Split(s, req.Region.Space)
		live, inside = append(live, in), append(inside, in)
		if rest != nil {
			live = append(live, rest)
		}
		if forced {
			inside = append(inside, rest)
		}
	}
	f.sets[req.Field] = live
	return inside
}

func (f *flat) Write(t *core.Task, ri int, inside []*set) {
	for _, s := range inside {
		s.Hist = []core.Entry{{Task: t.ID, Req: ri, Priv: t.Reqs[ri].Priv, Pts: s.Pts}}
	}
}

func (f *flat) Name() string                      { return "flat" }
func (f *flat) Stats() *core.Stats                { return &f.k.Stats }
func (f *flat) Analyze(t *core.Task) *core.Result { return f.k.Analyze(t) }

func newFlat(tree *region.Tree, o core.Options) *flat {
	f := &flat{root: tree.Root.Space, sets: make(map[field.ID][]*set)}
	f.k = eqset.New[int]("flat", o, f)
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

// TestFlatStoreIsSound drives the toy store through random trees and
// streams against the sequential interpreter and the exact dependence
// analysis, with and without forced splits.
func TestFlatStoreIsSound(t *testing.T) {
	for _, plan := range []string{"", "seed=3;analyzer.eqset.split=every=2"} {
		rng := rand.New(rand.NewSource(13))
		for it := 0; it < 30; it++ {
			tree := randTree(rng)
			stream := randStream(rng, tree, 12+rng.Intn(20))
			var opts core.Options
			if plan != "" {
				opts.Faults = mustInjector(t, plan)
			}
			fac := core.Factory{Name: "flat", New: func(tree *region.Tree) core.Analyzer { return newFlat(tree, opts) }}
			if err := core.Verify(stream, testutil.FullInit(tree), core.HashKernel{}, fac); err != nil {
				t.Fatalf("plan %q iteration %d: %v", plan, it, err)
			}
			if plan != "" && opts.Faults.Fires(fault.EqSplit) == 0 {
				t.Fatalf("plan %q iteration %d: no split was forced", plan, it)
			}
		}
	}
}
