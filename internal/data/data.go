// Package data provides rectangle-slab value stores for region contents
// and the blending function B of paper §3.1, which defines ground-truth
// coherence semantics: the value of an element is the blend of the ordered
// sequence of operations applied to it, where writes are opaque, reductions
// are partially transparent, and reads are fully transparent.
package data

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"visibility/internal/geometry"
	"visibility/internal/index"
	"visibility/internal/privilege"
)

// Store holds one float64 per point of an index space, each point either
// defined or not. The values of all points sit in one slice: a row-major
// slab (lowest axis fastest) per rectangle of the space, in rectangle
// order, so whole rows move with copy and a store over a region costs a
// fixed number of allocations whatever its volume. Create with NewStore.
type Store struct {
	space index.Space
	off   []int     // off[i] is where rectangle i's slab starts in vals; nil for one rectangle
	vals  []float64 // the slabs; the slot of an undefined point holds nothing meaningful
	def   []uint64  // bit i: vals[i] is defined; nil while n is 0 or len(vals) (none or all)
	n     int       // defined points
}

// NewStore creates a store over space with every point undefined.
func NewStore(space index.Space) *Store {
	s := &Store{space: space}
	rects := space.Rects()
	if len(rects) > 1 {
		s.off = make([]int, len(rects))
	}
	size := 0
	for i, r := range rects {
		if i > 0 {
			s.off[i] = size
		}
		size += int(r.Volume())
	}
	s.vals = make([]float64, size)
	return s
}

// Dim returns the dimensionality of the store's points.
func (s *Store) Dim() int { return s.space.Dim() }

// Len returns the number of points with defined values.
func (s *Store) Len() int { return s.n }

// base returns where rectangle i's slab starts.
func (s *Store) base(i int) int {
	if s.off == nil {
		return 0
	}
	return s.off[i]
}

// offset returns the row-major position of p inside r.
func offset(r geometry.Rect, p geometry.Point) int {
	at, stride := 0, 1
	for a := 0; a < r.Dim; a++ {
		at += int(p.C[a]-r.Lo.C[a]) * stride
		stride *= int(r.Hi.C[a]-r.Lo.C[a]) + 1
	}
	return at
}

// span returns the run [lo, hi) of rects that can meet r: a canonical
// list is sorted by band along the highest axis, so the rectangles whose
// extent there meets r's are contiguous (and in 1-D are exactly the ones
// that meet it).
func span(rects []geometry.Rect, r geometry.Rect) (lo, hi int) {
	top := r.Dim - 1
	lo = sort.Search(len(rects), func(i int) bool { return rects[i].Hi.C[top] >= r.Lo.C[top] })
	hi = lo + sort.Search(len(rects)-lo, func(i int) bool { return rects[lo+i].Lo.C[top] > r.Hi.C[top] })
	return lo, hi
}

// index returns p's position in vals, or -1 if p is outside the space.
func (s *Store) index(p geometry.Point) int {
	rects := s.space.Rects()
	lo, hi := span(rects, geometry.PointRect(p, s.space.Dim()))
	for i := lo; i < hi; i++ {
		if rects[i].Contains(p) {
			return s.base(i) + offset(rects[i], p)
		}
	}
	return -1
}

// defined reports whether vals[i] holds a value.
func (s *Store) defined(i int) bool {
	if s.def == nil {
		return s.n > 0
	}
	return s.def[i>>6]>>(i&63)&1 != 0
}

// mark records that vals[i:i+n] now hold values. The bitset exists only
// while the store is partly defined: filling an empty store in one run
// never allocates it, and the run that completes the store drops it.
func (s *Store) mark(i, n int) {
	if s.n == len(s.vals) {
		return
	}
	if n == len(s.vals) {
		s.def, s.n = nil, n
		return
	}
	if s.def == nil {
		s.def = make([]uint64, (len(s.vals)+63)/64)
	}
	for n > 0 {
		w, k := &s.def[i>>6], min(n, 64-i&63)
		run := ^uint64(0) >> (64 - k) << (i & 63)
		s.n += k - bits.OnesCount64(*w&run)
		*w |= run
		i, n = i+k, n-k
	}
	if s.n == len(s.vals) {
		s.def = nil
	}
}

// Get returns the value at p; ok is false if p is undefined.
func (s *Store) Get(p geometry.Point) (float64, bool) {
	if i := s.index(p); i >= 0 && s.defined(i) {
		return s.vals[i], true
	}
	return 0, false
}

// MustGet returns the value at p and panics if p is undefined, which in the
// coherence engines indicates a materialization hole (a bug, not a user
// error).
func (s *Store) MustGet(p geometry.Point) float64 {
	v, ok := s.Get(p)
	if !ok {
		panic(fmt.Sprintf("data: undefined point %v", p))
	}
	return v
}

// Set assigns v to p, which must be a point of the store's space.
func (s *Store) Set(p geometry.Point, v float64) {
	i := s.index(p)
	if i < 0 {
		panic(fmt.Sprintf("data: point %v outside the store's space %v", p, s.space))
	}
	s.vals[i] = v
	s.mark(i, 1)
}

// rows calls f for every row of the store's space — a stretch along the
// lowest axis — with its first point, its position in vals and its
// length, in slab order.
func (s *Store) rows(f func(p geometry.Point, i, n int)) {
	i := 0
	for _, r := range s.space.Rects() {
		n := int(r.Hi.C[0]-r.Lo.C[0]) + 1
		r.Hi.C[0] = r.Lo.C[0] // the first point of every row
		r.Each(func(p geometry.Point) bool {
			f(p, i, n)
			i += n
			return true
		})
	}
}

// Fill sets every point of the store's space to f of the point.
func (s *Store) Fill(f func(geometry.Point) float64) {
	s.rows(func(p geometry.Point, i, n int) {
		for end := i + n; i < end; i, p.C[0] = i+1, p.C[0]+1 {
			s.vals[i] = f(p)
		}
	})
	s.mark(0, len(s.vals))
}

// Values returns every point's value in slab order, the order Fill
// visits, an undefined point reading as 0.
func (s *Store) Values() []float64 {
	out := make([]float64, len(s.vals))
	for i, v := range s.vals {
		if s.defined(i) {
			out[i] = v
		}
	}
	return out
}

// Map sets every point of the store's space to f of the point and in's
// value there, an undefined point reading as 0. in must be s itself or a
// store over the same space.
func (s *Store) Map(in *Store, f func(p geometry.Point, cur float64) float64) {
	if in != s && !in.space.Equal(s.space) {
		panic(fmt.Sprintf("data: Map from a store over %v onto one over %v", in.space, s.space))
	}
	s.rows(func(p geometry.Point, i, n int) {
		for end := i + n; i < end; i, p.C[0] = i+1, p.C[0]+1 {
			cur := 0.0
			if in.defined(i) {
				cur = in.vals[i]
			}
			s.vals[i] = f(p, cur)
		}
	})
	s.mark(0, len(s.vals))
}

// runs calls f for every stretch of pts that is contiguous in both s's
// and src's slabs — a row of the overlap of one rectangle of each — with
// the stretch's position in either and its length. Points of pts outside
// either store's space belong to no stretch.
func (s *Store) runs(src *Store, pts index.Space, f func(di, si, n int)) {
	drs, srs := s.space.Rects(), src.space.Rects()
	for _, pr := range pts.Rects() {
		dlo, dhi := span(drs, pr)
		for d := dlo; d < dhi; d++ {
			dx := pr.Intersect(drs[d])
			if dx.Empty() {
				continue
			}
			slo, shi := span(srs, dx)
			for k := slo; k < shi; k++ {
				x := dx.Intersect(srs[k])
				if x.Empty() {
					continue
				}
				n := int(x.Hi.C[0]-x.Lo.C[0]) + 1
				x.Hi.C[0] = x.Lo.C[0] // the first point of every row
				x.Each(func(p geometry.Point) bool {
					f(s.base(d)+offset(drs[d], p), src.base(k)+offset(srs[k], p), n)
					return true
				})
			}
		}
	}
}

// CopyFrom assigns src's value to every point of pts that is defined in
// src and lies in s's space — the effect of a visible write (§3.1).
func (s *Store) CopyFrom(src *Store, pts index.Space) {
	s.runs(src, pts, func(di, si, n int) {
		if src.n == len(src.vals) { // fully defined: the row moves whole
			copy(s.vals[di:di+n], src.vals[si:si+n])
			s.mark(di, n)
			return
		}
		for ; n > 0; di, si, n = di+1, si+1, n-1 {
			if src.defined(si) {
				s.vals[di] = src.vals[si]
				s.mark(di, 1)
			}
		}
	})
}

// Fold applies op to every point of pts that is defined in src and lies
// in s's space, folding src's value into s's, or into op's identity where
// s is undefined — the effect of a visible reduction (§3.1).
func (s *Store) Fold(src *Store, pts index.Space, op privilege.ReduceOp) {
	s.runs(src, pts, func(di, si, n int) {
		whole := src.n == len(src.vals) // fully defined: the row is marked once
		for j := 0; j < n; j++ {
			if !whole && !src.defined(si+j) {
				continue
			}
			cur := privilege.Identity(op)
			if s.defined(di + j) {
				cur = s.vals[di+j]
			}
			s.vals[di+j] = privilege.Apply(op, cur, src.vals[si+j])
			if !whole {
				s.mark(di+j, 1)
			}
		}
		if whole {
			s.mark(di, n)
		}
	})
}

// Clone returns a deep copy of the store.
func (s *Store) Clone() *Store {
	out := *s
	out.vals = append([]float64(nil), s.vals...)
	out.def = append([]uint64(nil), s.def...)
	return &out
}

// Restrict returns a new store over sp holding s's values at the points
// of sp that are defined in s.
func (s *Store) Restrict(sp index.Space) *Store {
	out := NewStore(sp)
	out.CopyFrom(s, sp)
	return out
}

// Each calls f for every defined point in Point.Less order (highest axis
// first). Rectangle order is that order only along the highest axis: a
// band holding several rectangles is visited row by row across all of
// them, the way the canonical form nests — bands along the highest axis,
// each band's cross-section canonical one dimension down.
func (s *Store) Each(f func(geometry.Point, float64)) {
	s.walk(0, s.space.NumRects(), s.space.Dim()-1, geometry.Point{}, f)
}

// walk visits rectangles [lo, hi), which share one extent on every axis
// above ax and whose coordinates there are set in p.
func (s *Store) walk(lo, hi, ax int, p geometry.Point, f func(geometry.Point, float64)) {
	rects := s.space.Rects()
	for lo < hi {
		r := rects[lo]
		if ax == 0 {
			// A 1-D cross-section is disjoint intervals: one row each.
			p.C[0] = r.Lo.C[0]
			for i := s.base(lo) + offset(r, p); p.C[0] <= r.Hi.C[0]; i, p.C[0] = i+1, p.C[0]+1 {
				if s.defined(i) {
					f(p, s.vals[i])
				}
			}
			lo++
			continue
		}
		band := lo + 1
		for band < hi && rects[band].Lo.C[ax] == r.Lo.C[ax] {
			band++
		}
		for p.C[ax] = r.Lo.C[ax]; p.C[ax] <= r.Hi.C[ax]; p.C[ax]++ {
			s.walk(lo, band, ax-1, p, f)
		}
		lo = band
	}
}

// Equal reports whether s and o define the same points with the same values.
func (s *Store) Equal(o *Store) bool {
	if s.n != o.n {
		return false
	}
	eq := true
	s.Each(func(p geometry.Point, v float64) {
		if ov, ok := o.Get(p); !ok || ov != v {
			eq = false
		}
	})
	return eq
}

// Diff returns a human-readable description of the first few differences
// between s and o, or "" if they are equal. Useful in test failures.
func (s *Store) Diff(o *Store) string {
	var b strings.Builder
	n := 0
	s.Each(func(p geometry.Point, v float64) {
		if n >= 5 {
			return
		}
		ov, ok := o.Get(p)
		if !ok {
			fmt.Fprintf(&b, "%v: %v vs <undefined>\n", p, v)
			n++
		} else if ov != v {
			fmt.Fprintf(&b, "%v: %v vs %v\n", p, v, ov)
			n++
		}
	})
	o.Each(func(p geometry.Point, v float64) {
		if n >= 5 {
			return
		}
		if _, ok := s.Get(p); !ok {
			fmt.Fprintf(&b, "%v: <undefined> vs %v\n", p, v)
			n++
		}
	})
	return b.String()
}
