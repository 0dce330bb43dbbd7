// Package index implements sparse index spaces: sets of n-dimensional
// integer points stored as canonical lists of disjoint rectangles.
//
// Index spaces are the substrate for content-based coherence (paper §1,
// §3.2): a region names a set of points, regions may alias arbitrarily, and
// the analyses must decide emptiness of intersections, compute differences,
// and overlay updates (the ⊕ operator of §5). All of those are provided
// here as immutable-value operations.
//
// Canonical form: rectangles are decomposed into bands along the highest
// axis (splitting at every distinct boundary), each band's lower-dimensional
// cross-section is canonicalized recursively, and adjacent bands with
// identical cross-sections are re-merged. Two spaces contain the same points
// if and only if their canonical rectangle lists are identical, so Equal is
// a cheap structural comparison.
//
// The set algebra runs on that form directly (sweep.go). Both operands are
// sorted, disjoint band lists, so Overlaps, Covers, Intersect, Subtract,
// Union and Split are one two-pointer merge of the two lists along the
// highest axis that recurses on the cross-sections where bands of both
// operands meet — plain interval merging in 1-D — and emits canonical
// output as it goes, with one exactly-sized allocation per result and none
// for the predicates. In 1-D that is O(|a|+|b|) steps. In N-D a band is
// walked once per band of the other operand it meets, so the cost is the
// two inputs plus the cross-sections of the elementary segments, which is
// O(|a|+|b|+|result|) when bands line up (pieces of one grid) and at worst
// O(|a|·bands(b)+|b|·bands(a)), never the pairwise |a|·|b| rectangle tests
// followed by a sort. Only FromRects and FromPoints, which take arbitrary
// rectangles, sort.
package index

import (
	"fmt"
	"sort"
	"strings"

	"visibility/internal/geometry"
)

// Space is an immutable sparse set of points. The zero value is the empty
// 0-dimensional space; use Empty for a typed empty space.
type Space struct {
	dim   int
	rects []geometry.Rect // canonical: disjoint, sorted, band-decomposed
}

// Empty returns the empty space of the given dimension.
func Empty(dim int) Space { return Space{dim: dim} }

// FromRect returns the space containing exactly the points of r.
func FromRect(r geometry.Rect) Space {
	if r.Empty() {
		return Space{dim: r.Dim}
	}
	return Space{dim: r.Dim, rects: []geometry.Rect{r}}
}

// FromRects returns the space containing the union of the given rectangles,
// which may overlap. All rectangles must share the given dimension.
func FromRects(dim int, rs ...geometry.Rect) Space {
	in := make([]geometry.Rect, 0, len(rs))
	for _, r := range rs {
		if r.Dim != dim {
			panic(fmt.Sprintf("index: rect dim %d != space dim %d", r.Dim, dim))
		}
		if !r.Empty() {
			in = append(in, r)
		}
	}
	return Space{dim: dim, rects: canon(in, dim)}
}

// FromPoints returns the space containing exactly the given points.
func FromPoints(dim int, ps ...geometry.Point) Space {
	rs := make([]geometry.Rect, len(ps))
	for i, p := range ps {
		rs[i] = geometry.PointRect(p, dim)
	}
	return FromRects(dim, rs...)
}

// FromRows decodes the row form of a space — one [lo0, hi0, lo1, hi1, ...]
// row per rectangle, the encoding checkpoints and wire workloads carry.
// Rows may overlap. It rejects, with an error and never a panic,
// everything untrusted input can get wrong: a dimension outside
// [1, MaxDim], a row whose length is not 2·dim, inverted bounds (lo > hi).
func FromRows(dim int, rows [][]int64) (Space, error) {
	if dim < 1 || dim > geometry.MaxDim {
		return Empty(1), fmt.Errorf("dimension %d outside [1, %d]", dim, geometry.MaxDim)
	}
	rects := make([]geometry.Rect, 0, len(rows))
	for _, row := range rows {
		if len(row) != 2*dim {
			return Empty(dim), fmt.Errorf("malformed rect %v for dim %d", row, dim)
		}
		r := geometry.Rect{Dim: dim}
		for a := 0; a < dim; a++ {
			r.Lo.C[a] = row[2*a]
			r.Hi.C[a] = row[2*a+1]
			if r.Lo.C[a] > r.Hi.C[a] {
				return Empty(dim), fmt.Errorf("inverted rect %v (lo > hi on axis %d)", row, a)
			}
		}
		rects = append(rects, r)
	}
	return FromRects(dim, rects...), nil
}

// Rows encodes the canonical decomposition in the form FromRows decodes.
func (s Space) Rows() [][]int64 {
	out := make([][]int64, 0, len(s.rects))
	for _, r := range s.rects {
		row := make([]int64, 0, 2*s.dim)
		for a := 0; a < s.dim; a++ {
			row = append(row, r.Lo.C[a], r.Hi.C[a])
		}
		out = append(out, row)
	}
	return out
}

// Dim returns the dimensionality of the space.
func (s Space) Dim() int { return s.dim }

// IsEmpty reports whether the space contains no points.
func (s Space) IsEmpty() bool { return len(s.rects) == 0 }

// NumRects returns the number of rectangles in the canonical decomposition.
func (s Space) NumRects() int { return len(s.rects) }

// Rects returns the canonical rectangle decomposition. The returned slice
// must not be modified.
func (s Space) Rects() []geometry.Rect { return s.rects }

// Volume returns the number of points in the space.
func (s Space) Volume() int64 {
	var v int64
	for _, r := range s.rects {
		v += r.Volume()
	}
	return v
}

// VolumeAtMost reports whether the space has at most max points. Unlike
// Volume it cannot overflow, whatever extents untrusted rows declared.
func (s Space) VolumeAtMost(max int64) bool {
	for _, r := range s.rects {
		v := uint64(1)
		for a := 0; a < r.Dim; a++ {
			ext := uint64(r.Hi.C[a]) - uint64(r.Lo.C[a]) + 1
			if ext == 0 || ext > uint64(max)/v {
				return false
			}
			v *= ext
		}
		max -= int64(v)
	}
	return true
}

// Bounds returns the bounding rectangle of the space (empty if the space is
// empty).
func (s Space) Bounds() geometry.Rect {
	if len(s.rects) == 0 {
		return geometry.Rect{Dim: s.dim, Lo: geometry.Pt1(1), Hi: geometry.Pt1(0)}
	}
	b := s.rects[0]
	for _, r := range s.rects[1:] {
		b = b.Union(r)
	}
	return b
}

// Lo returns Bounds().Lo — the low corner of the bounding box, which need
// not be a point of the space — without forming the box. The canonical
// order puts the lowest band first, so the highest axis (the only one, in
// 1-D) is read off the first rectangle.
func (s Space) Lo() geometry.Point {
	if len(s.rects) == 0 {
		return s.Bounds().Lo
	}
	lo := s.rects[0].Lo
	for a := 0; a < s.dim-1; a++ {
		for _, r := range s.rects[1:] {
			lo.C[a] = min(lo.C[a], r.Lo.C[a])
		}
	}
	return lo
}

// Contains reports whether p is in the space.
func (s Space) Contains(p geometry.Point) bool {
	for _, r := range s.rects {
		if r.Contains(p) {
			return true
		}
	}
	return false
}

// Overlaps reports whether s and o share at least one point. This is the
// hot-path emptiness test of content-based dependence analysis (§3.2): it
// allocates nothing and stops at the first shared point.
func (s Space) Overlaps(o Space) bool {
	if s.spanDisjoint(o) {
		return false
	}
	if len(s.rects) == 1 && len(o.rects) == 1 {
		return s.rects[0].Overlaps(o.rects[0])
	}
	w := sweeper{keep: [2]uint8{both}, probe: true}
	return w.run(s.dim, s.rects, o.rects, geometry.Rect{Dim: s.dim})
}

// Covers reports whether every point of o is in s. It allocates nothing and
// stops at the first point of o outside s.
func (s Space) Covers(o Space) bool {
	if o.IsEmpty() {
		return true
	}
	if s.IsEmpty() {
		return false
	}
	slo, shi := s.span()
	if olo, ohi := o.span(); olo < slo || ohi > shi {
		return false
	}
	if len(s.rects) == 1 {
		// One rectangle covers o exactly when it contains each of o's.
		for _, r := range o.rects {
			if !s.rects[0].ContainsRect(r) {
				return false
			}
		}
		return true
	}
	w := sweeper{keep: [2]uint8{onlyA}, probe: true}
	return !w.run(s.dim, o.rects, s.rects, geometry.Rect{Dim: s.dim})
}

// Intersect returns the set of points in both s and o (the X/Y operator of
// §5 applied to domains).
func (s Space) Intersect(o Space) Space {
	if s.spanDisjoint(o) {
		return Empty(s.dim)
	}
	in, _ := s.sweep(o, both, 0)
	return in
}

// Subtract returns the set of points in s but not in o (the X\Y operator of
// §5 applied to domains).
func (s Space) Subtract(o Space) Space {
	if s.spanDisjoint(o) {
		return s
	}
	out, _ := s.sweep(o, onlyA, 0)
	return out
}

// Union returns the set of points in s or o.
func (s Space) Union(o Space) Space {
	if s.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return s
	}
	all, _ := s.sweep(o, onlyA|onlyB|both, 0)
	return all
}

// UnionAll returns the union of ss, which are of dimension dim: the left
// fold of Union from Empty(dim), with no operands Empty(dim). It unions
// halves recursively, so k operands of n rectangles in all cost
// O(n log k) steps where the fold costs O(n·k).
func UnionAll(dim int, ss []Space) Space {
	switch len(ss) {
	case 0:
		return Empty(dim)
	case 1:
		return ss[0]
	}
	h := len(ss) / 2
	return UnionAll(dim, ss[:h]).Union(UnionAll(dim, ss[h:]))
}

// Split returns s ∩ o and s − o. A probe that builds nothing settles the
// case that o covers s; otherwise one pass produces both halves. A half
// equal to s is s itself, so splitting a covered or a disjoint space
// allocates nothing.
func (s Space) Split(o Space) (in, out Space) {
	if s.spanDisjoint(o) {
		return Empty(s.dim), s
	}
	if o.Covers(s) {
		return s, Empty(s.dim)
	}
	return s.sweep(o, both, onlyA)
}

// Equal reports whether s and o contain exactly the same points.
func (s Space) Equal(o Space) bool {
	if s.dim != o.dim || len(s.rects) != len(o.rects) {
		return false
	}
	for i := range s.rects {
		if !s.rects[i].Equal(o.rects[i]) {
			return false
		}
	}
	return true
}

// Each calls f for every point of the space; iteration stops early if f
// returns false. Within the canonical form, rectangles are visited in band
// order and each rectangle in row-major order.
func (s Space) Each(f func(geometry.Point) bool) {
	for _, r := range s.rects {
		if !r.Each(f) {
			return
		}
	}
}

// SplitAt partitions s into its first n points (in Each order) and the
// remainder. n is clamped to [0, Volume()], so one side may be empty at
// the extremes. The fault plane uses it to force equivalence-set splits
// at deterministic positions.
func (s Space) SplitAt(n int64) (Space, Space) {
	if n <= 0 {
		return Empty(s.dim), s
	}
	for k, r := range s.rects {
		if v := r.Volume(); n >= v {
			n -= v
			continue
		}
		// The cut falls inside r. Its first n points in row-major order
		// are, axis by axis from the highest down, a slab of whole
		// hyperplanes and then a prefix of the next hyperplane.
		head := append([]geometry.Rect(nil), s.rects[:k]...)
		var tail []geometry.Rect
		for ax := s.dim - 1; n > 0; ax-- {
			plane := r.Volume() / (r.Hi.C[ax] - r.Lo.C[ax] + 1)
			cut := r.Lo.C[ax] + n/plane // the hyperplane the prefix ends in
			if n >= plane {
				slab := r
				slab.Hi.C[ax] = cut - 1
				head = append(head, slab)
			}
			if n %= plane; n > 0 {
				if cut < r.Hi.C[ax] {
					rest := r
					rest.Lo.C[ax] = cut + 1
					tail = append(tail, rest)
				}
				r.Hi.C[ax] = cut
			}
			r.Lo.C[ax] = cut
		}
		tail = append(append(tail, r), s.rects[k+1:]...)
		return FromRects(s.dim, head...), FromRects(s.dim, tail...)
	}
	return s, Empty(s.dim)
}

// String formats the space for debugging.
func (s Space) String() string {
	if s.IsEmpty() {
		return fmt.Sprintf("{empty d%d}", s.dim)
	}
	parts := make([]string, len(s.rects))
	for i, r := range s.rects {
		parts[i] = r.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// canon converts an arbitrary (possibly overlapping) rectangle list into the
// canonical band decomposition described in the package comment.
func canon(rs []geometry.Rect, dim int) []geometry.Rect {
	if len(rs) == 0 {
		return nil
	}
	if dim == 1 {
		return canon1(rs)
	}
	axis := dim - 1

	// Collect distinct band boundaries along the highest axis.
	bounds := make([]int64, 0, 2*len(rs))
	for _, r := range rs {
		bounds = append(bounds, r.Lo.C[axis], r.Hi.C[axis]+1)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	bounds = dedup64(bounds)

	type band struct {
		lo, hi int64           // inclusive range on axis
		cross  []geometry.Rect // canonical (dim-1) cross-section
	}
	var bands []band
	for bi := 0; bi+1 < len(bounds); bi++ {
		lo, hi := bounds[bi], bounds[bi+1]-1
		var cross []geometry.Rect
		for _, r := range rs {
			if r.Lo.C[axis] <= lo && hi <= r.Hi.C[axis] {
				// Project r to dim-1 by dropping the highest axis.
				p := r
				p.Dim = dim - 1
				p.Lo.C[axis] = 0
				p.Hi.C[axis] = 0
				cross = append(cross, p)
			}
		}
		if len(cross) == 0 {
			continue
		}
		cross = canon(cross, dim-1)
		// Merge with previous band when contiguous and identical.
		if n := len(bands); n > 0 && bands[n-1].hi+1 == lo && sameRects(bands[n-1].cross, cross) {
			bands[n-1].hi = hi
			continue
		}
		bands = append(bands, band{lo: lo, hi: hi, cross: cross})
	}

	var out []geometry.Rect
	for _, b := range bands {
		for _, c := range b.cross {
			r := c
			r.Dim = dim
			r.Lo.C[axis] = b.lo
			r.Hi.C[axis] = b.hi
			out = append(out, r)
		}
	}
	return out
}

// canon1 merges 1-D intervals into a sorted list of disjoint,
// non-adjacent intervals.
func canon1(rs []geometry.Rect) []geometry.Rect {
	sorted := make([]geometry.Rect, len(rs))
	copy(sorted, rs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Lo.C[0] < sorted[j].Lo.C[0] })
	var out []geometry.Rect
	for _, r := range sorted {
		if n := len(out); n > 0 && r.Lo.C[0] <= out[n-1].Hi.C[0]+1 {
			if r.Hi.C[0] > out[n-1].Hi.C[0] {
				out[n-1].Hi.C[0] = r.Hi.C[0]
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

func sameRects(a, b []geometry.Rect) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func dedup64(xs []int64) []int64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}
