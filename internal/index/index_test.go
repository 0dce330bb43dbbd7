package index

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"visibility/internal/geometry"
)

func TestEmpty(t *testing.T) {
	e := Empty(2)
	if !e.IsEmpty() || e.Volume() != 0 || e.Dim() != 2 {
		t.Errorf("Empty(2) = %v", e)
	}
	if e.Contains(geometry.Pt2(0, 0)) {
		t.Error("empty space contains nothing")
	}
	if !e.Bounds().Empty() {
		t.Error("empty space has empty bounds")
	}
}

// TestVolumeAtMost holds the overflow-proof bound to Volume wherever
// Volume is exact, and to the truth where Volume wraps.
func TestVolumeAtMost(t *testing.T) {
	two := FromRects(1, geometry.R1(0, 5), geometry.R1(10, 12)) // 6 + 3 points
	for _, tc := range []struct {
		s    Space
		max  int64
		want bool
	}{
		{Empty(2), 0, true},
		{two, 9, true},
		{two, 8, false},
		{two, 0, false},
		{FromRect(geometry.R2(0, 0, 1<<32-1, 1<<32-1)), 1 << 40, false}, // Volume wraps to 0
		{FromRect(geometry.R1(-1<<63, 1<<63-1)), 1<<63 - 1, false},      // extent wraps to 0
	} {
		if got := tc.s.VolumeAtMost(tc.max); got != tc.want {
			t.Errorf("%v.VolumeAtMost(%d) = %v, want %v", tc.s, tc.max, got, tc.want)
		}
	}
}

func TestFromRectsMergesOverlaps(t *testing.T) {
	s := FromRects(1, geometry.R1(0, 5), geometry.R1(3, 9), geometry.R1(10, 12))
	// [0,5] ∪ [3,9] ∪ [10,12] = [0,12]: adjacent intervals merge too.
	if s.NumRects() != 1 || s.Volume() != 13 {
		t.Errorf("got %v, want single rect [0..12]", s)
	}
}

func TestCanonical2D(t *testing.T) {
	// Two ways to build the same L-shape must produce identical structure.
	a := FromRects(2, geometry.R2(0, 0, 9, 4), geometry.R2(0, 5, 4, 9))
	b := FromRects(2, geometry.R2(0, 0, 4, 9), geometry.R2(5, 0, 9, 4))
	if !a.Equal(b) {
		t.Errorf("canonical forms differ:\n a=%v\n b=%v", a, b)
	}
	if a.Volume() != 75 {
		t.Errorf("volume = %d, want 75", a.Volume())
	}
}

func TestBandMerging(t *testing.T) {
	// Two stacked rects with the same x-extent should merge into one band.
	s := FromRects(2, geometry.R2(0, 0, 4, 2), geometry.R2(0, 3, 4, 7))
	if s.NumRects() != 1 {
		t.Errorf("expected 1 rect after band merge, got %v", s)
	}
}

func TestIntersect(t *testing.T) {
	a := FromRect(geometry.R2(0, 0, 5, 5))
	b := FromRects(2, geometry.R2(4, 4, 8, 8), geometry.R2(0, 0, 1, 1))
	got := a.Intersect(b)
	want := FromRects(2, geometry.R2(4, 4, 5, 5), geometry.R2(0, 0, 1, 1))
	if !got.Equal(want) {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
}

func TestSubtract(t *testing.T) {
	a := FromRect(geometry.R2(0, 0, 9, 9))
	b := FromRect(geometry.R2(3, 3, 6, 6))
	got := a.Subtract(b)
	if got.Volume() != 100-16 {
		t.Errorf("Subtract volume = %d, want 84", got.Volume())
	}
	if got.Overlaps(b) {
		t.Error("difference overlaps subtrahend")
	}
	if !got.Union(b.Intersect(a)).Equal(a) {
		t.Error("X\\Y ∪ (X∩Y) != X")
	}
}

func TestCoversAndOverlaps(t *testing.T) {
	a := FromRect(geometry.R1(0, 99))
	b := FromRects(1, geometry.R1(5, 10), geometry.R1(50, 60))
	if !a.Covers(b) {
		t.Error("a should cover b")
	}
	if b.Covers(a) {
		t.Error("b should not cover a")
	}
	if !a.Covers(a) || !a.Covers(Empty(1)) {
		t.Error("covers should be reflexive and hold for empty")
	}
	if Empty(1).Covers(b) {
		t.Error("empty covers nothing non-empty")
	}
	if !a.Overlaps(b) || b.Overlaps(Empty(1)) {
		t.Error("overlap misbehavior")
	}
}

func TestEach(t *testing.T) {
	s := FromRects(1, geometry.R1(0, 2), geometry.R1(10, 11))
	var got []int64
	s.Each(func(p geometry.Point) bool {
		got = append(got, p.C[0])
		return true
	})
	want := []int64{0, 1, 2, 10, 11}
	if len(got) != len(want) {
		t.Fatalf("Each visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Each visited %v, want %v", got, want)
		}
	}
}

func TestFromPoints(t *testing.T) {
	s := FromPoints(1, geometry.Pt1(3), geometry.Pt1(1), geometry.Pt1(2), geometry.Pt1(7))
	if s.Volume() != 4 || s.NumRects() != 2 {
		t.Errorf("FromPoints = %v, want [1..3] and [7..7]", s)
	}
}

// brute is a reference point-set implementation for property tests.
type brute map[geometry.Point]bool

func bruteOf(s Space) brute {
	m := brute{}
	s.Each(func(p geometry.Point) bool { m[p] = true; return true })
	return m
}

// randSpace builds a space from up to 10 random rectangles, which overlap,
// abut and nest often enough to exercise every branch of the sweep.
func randSpace(rng *rand.Rand, dim int) Space {
	n := rng.Intn(11)
	rs := make([]geometry.Rect, 0, n)
	for i := 0; i < n; i++ {
		r := geometry.Rect{Dim: dim}
		for a := 0; a < dim; a++ {
			lo := int64(rng.Intn(12))
			r.Lo.C[a] = lo
			r.Hi.C[a] = lo + int64(rng.Intn(6))
		}
		rs = append(rs, r)
	}
	return FromRects(dim, rs...)
}

// checkCanonical requires s to be in canonical form: rebuilding it from its
// own rectangles through canon — which sorts, splits at every boundary and
// re-merges adjacent intervals and identical adjacent bands — must change
// nothing, down to the unused coordinates.
func checkCanonical(t testing.TB, what string, s Space) {
	t.Helper()
	if want := FromRects(s.Dim(), s.Rects()...); !slices.Equal(s.Rects(), want.Rects()) {
		t.Fatalf("%s is not canonical: %v, want %v", what, s.Rects(), want.Rects())
	}
}

// checkAlgebra checks every binary operation on x and y, Split included,
// point by point against the brute-force oracle, and requires every result
// to be canonical.
func checkAlgebra(t testing.TB, x, y Space) {
	t.Helper()
	bx, by := bruteOf(x), bruteOf(y)
	if x.Volume() != int64(len(bx)) {
		t.Fatalf("Volume(%v) = %d, oracle %d", x, x.Volume(), len(bx))
	}
	and := func(inX, inY bool) bool { return inX && inY }
	andNot := func(inX, inY bool) bool { return inX && !inY }
	in, out := x.Split(y)
	for _, c := range []struct {
		name string
		got  Space
		want func(inX, inY bool) bool
	}{
		{"Intersect", x.Intersect(y), and},
		{"Subtract", x.Subtract(y), andNot},
		{"Union", x.Union(y), func(inX, inY bool) bool { return inX || inY }},
		{"Split in", in, and},
		{"Split out", out, andNot},
	} {
		want := brute{}
		for p := range bx {
			if c.want(true, by[p]) {
				want[p] = true
			}
		}
		for p := range by {
			if c.want(bx[p], true) {
				want[p] = true
			}
		}
		what := fmt.Sprintf("%s of %v and %v", c.name, x, y)
		if got := bruteOf(c.got); !maps.Equal(got, want) {
			t.Fatalf("%s = %v: wrong point set", what, c.got)
		}
		if c.got.Volume() != int64(len(want)) {
			t.Fatalf("%s = %v: rectangles overlap", what, c.got)
		}
		if c.got.Dim() != x.Dim() {
			t.Fatalf("%s has dim %d", what, c.got.Dim())
		}
		checkCanonical(t, what, c.got)
		if c.got.Lo() != c.got.Bounds().Lo {
			t.Fatalf("%s = %v: Lo %v, Bounds().Lo %v", what, c.got, c.got.Lo(), c.got.Bounds().Lo)
		}
	}
	overlaps, covers := false, true
	for p := range by {
		overlaps = overlaps || bx[p]
		covers = covers && bx[p]
	}
	if x.Overlaps(y) != overlaps {
		t.Fatalf("%v Overlaps %v = %v", x, y, !overlaps)
	}
	if x.Covers(y) != covers {
		t.Fatalf("%v Covers %v = %v", x, y, !covers)
	}
}

// checkUnionAll requires UnionAll of ss to hold exactly the points of the
// oracle's union, in canonical form, and to equal the left fold of Union.
func checkUnionAll(t testing.TB, dim int, ss []Space) {
	t.Helper()
	got := UnionAll(dim, ss)
	want, fold := brute{}, Empty(dim)
	for _, s := range ss {
		maps.Copy(want, bruteOf(s))
		fold = fold.Union(s)
	}
	what := fmt.Sprintf("UnionAll of %v", ss)
	if !maps.Equal(bruteOf(got), want) || got.Volume() != int64(len(want)) {
		t.Fatalf("%s = %v: wrong point set", what, got)
	}
	if got.Dim() != dim {
		t.Fatalf("%s has dim %d, want %d", what, got.Dim(), dim)
	}
	checkCanonical(t, what, got)
	if !slices.Equal(got.Rects(), fold.Rects()) {
		t.Fatalf("%s = %v, the fold of Union %v", what, got, fold)
	}
}

// TestUnionAll checks UnionAll of 0 to 9 random operands in 1-D to 3-D, and
// that no operands make the empty space of the given dimension.
func TestUnionAll(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for dim := 1; dim <= 3; dim++ {
		if got := UnionAll(dim, nil); !got.IsEmpty() || got.Dim() != dim {
			t.Fatalf("UnionAll(%d, nil) = %v of dim %d", dim, got, got.Dim())
		}
		for i := 0; i < 200; i++ {
			ss := make([]Space, rng.Intn(10))
			for j := range ss {
				ss[j] = randSpace(rng, dim)
			}
			checkUnionAll(t, dim, ss)
		}
	}
}

func TestSetAlgebraProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for dim := 1; dim <= 3; dim++ {
		for i := 0; i < 300; i++ {
			x, y := randSpace(rng, dim), randSpace(rng, dim)
			checkAlgebra(t, x, y)
			checkAlgebra(t, x, x.Union(y)) // covered operand
			checkAlgebra(t, x, x)
		}
	}
}

// The sweep emits canonical form directly; these are the cases where that
// takes a merge: adjacent intervals, and adjacent bands whose
// cross-sections only become identical in the result.
func TestSweepMergesAdjacent(t *testing.T) {
	r1, r2 := geometry.R1, geometry.R2
	for _, c := range []struct {
		name      string
		got, want Space
	}{
		{"1-D union of abutting intervals",
			FromRect(r1(0, 5)).Union(FromRect(r1(6, 9))), FromRect(r1(0, 9))},
		{"1-D union bridging a gap",
			FromRects(1, r1(0, 2), r1(6, 9)).Union(FromRect(r1(3, 5))), FromRect(r1(0, 9))},
		{"2-D union of stacked bands",
			FromRect(r2(0, 0, 4, 2)).Union(FromRect(r2(0, 3, 4, 7))), FromRect(r2(0, 0, 4, 7))},
		{"2-D intersect clipping two bands alike",
			FromRects(2, r2(0, 0, 9, 4), r2(0, 5, 4, 9)).Intersect(FromRect(r2(1, 2, 3, 8))), FromRect(r2(1, 2, 3, 8))},
		{"2-D subtract leaving two bands alike",
			FromRects(2, r2(0, 0, 9, 4), r2(0, 5, 4, 9)).Subtract(FromRect(r2(5, 0, 9, 4))), FromRect(r2(0, 0, 4, 9))},
		{"3-D union of stacked slabs",
			FromRect(geometry.R3(0, 0, 0, 3, 3, 1)).Union(FromRect(geometry.R3(0, 0, 2, 3, 3, 5))), FromRect(geometry.R3(0, 0, 0, 3, 3, 5))},
	} {
		if !slices.Equal(c.got.Rects(), c.want.Rects()) {
			t.Errorf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
}

// A result equal to an operand shares its rectangles instead of copying.
func TestSplitSharesCoveredAndDisjoint(t *testing.T) {
	s := FromRects(1, geometry.R1(0, 4), geometry.R1(8, 12))
	if in, out := s.Split(FromRect(geometry.R1(0, 20))); !out.IsEmpty() || &in.Rects()[0] != &s.Rects()[0] {
		t.Errorf("covered: in %v out %v", in, out)
	}
	if in, out := s.Split(FromRect(geometry.R1(5, 7))); !in.IsEmpty() || &out.Rects()[0] != &s.Rects()[0] {
		t.Errorf("disjoint: in %v out %v", in, out)
	}
}

// SplitAt is defined by point enumeration: the first n points in Each
// order, and the rest.
func TestSplitAtMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for dim := 1; dim <= 3; dim++ {
		for i := 0; i < 40; i++ {
			s := randSpace(rng, dim)
			var pts []geometry.Point
			s.Each(func(p geometry.Point) bool { pts = append(pts, p); return true })
			for n := int64(-1); n <= s.Volume()+1; n++ {
				cut := min(max(n, 0), s.Volume())
				head, tail := s.SplitAt(n)
				wantHead, wantTail := FromPoints(dim, pts[:cut]...), FromPoints(dim, pts[cut:]...)
				if !slices.Equal(head.Rects(), wantHead.Rects()) || !slices.Equal(tail.Rects(), wantTail.Rects()) {
					t.Fatalf("%v SplitAt(%d) = %v, %v; want %v, %v", s, n, head, tail, wantHead, wantTail)
				}
			}
		}
	}
}

// Property: canonical form is unique — building the same set from its own
// fragments reproduces identical structure.
func TestCanonicalUniqueness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for dim := 1; dim <= 3; dim++ {
		dim := dim
		f := func() bool {
			x := randSpace(rng, dim)
			y := randSpace(rng, dim)
			// x = (x\y) ∪ (x∩y), rebuilt from pieces.
			rebuilt := x.Subtract(y).Union(x.Intersect(y))
			return rebuilt.Equal(x)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Errorf("dim %d: %v", dim, err)
		}
	}
}

func TestDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dim mismatch")
		}
	}()
	FromRects(2, geometry.R1(0, 1))
}

func BenchmarkIntersect2D(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	xs := make([]Space, 64)
	for i := range xs {
		xs[i] = randSpace(rng, 2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = xs[i%64].Intersect(xs[(i+1)%64])
	}
}

func BenchmarkSubtract2D(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	xs := make([]Space, 64)
	for i := range xs {
		xs[i] = randSpace(rng, 2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = xs[i%64].Subtract(xs[(i+1)%64])
	}
}

// scattered1D returns two 15-interval spaces over the same range, offset so
// that most intervals partially overlap: the shape of the circuit's ghost
// sets against each other.
func scattered1D() (Space, Space) {
	var xs, ys []geometry.Rect
	for i := int64(0); i < 15; i++ {
		xs = append(xs, geometry.R1(40*i, 40*i+24))
		ys = append(ys, geometry.R1(40*i+13+i%3, 40*i+30+i%5))
	}
	return FromRects(1, xs...), FromRects(1, ys...)
}

func BenchmarkSubtract1DScattered(b *testing.B) {
	x, y := scattered1D()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Subtract(y)
	}
}

func Test3DSpaces(t *testing.T) {
	a := FromRect(geometry.R3(0, 0, 0, 3, 3, 3))
	b := FromRect(geometry.R3(2, 2, 2, 5, 5, 5))
	inter := a.Intersect(b)
	if inter.Volume() != 8 {
		t.Errorf("3-D intersect volume = %d", inter.Volume())
	}
	diff := a.Subtract(b)
	if diff.Volume() != 64-8 {
		t.Errorf("3-D subtract volume = %d", diff.Volume())
	}
	if !diff.Union(inter).Equal(a) {
		t.Error("3-D partition law failed")
	}
	if a.Bounds().Dim != 3 {
		t.Error("3-D bounds dim wrong")
	}
}
