package index

import (
	"sync"

	"visibility/internal/geometry"
)

// A sweep classifies every point of a ∪ b by the operands it belongs to.
const (
	onlyA uint8 = 1 << iota
	onlyB
	both
)

// sweeper is the one set-algebra kernel: a single two-pointer walk over two
// canonical rectangle lists. It either collects, for up to two outputs at
// once, the points whose class is in keep[k] — appended to out[k] in
// canonical form — or, as a probe, stops at the first point of a class in
// keep[0] and builds nothing.
type sweeper struct {
	keep  [2]uint8
	out   [2][]geometry.Rect
	seen  uint8 // the classes that turned out non-empty (collecting only)
	probe bool
}

// sweepers recycles the output buffers, so that an operation's only
// allocation is the exactly-sized copy of its result.
var sweepers = sync.Pool{New: func() any { return new(sweeper) }}

// sweep runs one collecting pass over s and o and returns the two spaces of
// the points whose class is in keep0 and in keep1.
func (s Space) sweep(o Space, keep0, keep1 uint8) (Space, Space) {
	w := sweepers.Get().(*sweeper)
	w.keep, w.seen = [2]uint8{keep0, keep1}, 0
	w.out[0], w.out[1] = w.out[0][:0], w.out[1][:0]
	w.run(s.dim, s.rects, o.rects, geometry.Rect{Dim: s.dim})
	r0, r1 := w.space(0, s, o), w.space(1, s, o)
	sweepers.Put(w)
	return r0, r1
}

// space returns output k of a sweep over s and o. An output that collected
// every non-empty class of an operand and nothing else is that operand, and
// shares its rectangles; anything else is copied out at its exact size.
func (w *sweeper) space(k int, s, o Space) Space {
	switch got := w.keep[k] & w.seen; got {
	case 0:
		return Empty(s.dim)
	case w.seen & (onlyA | both):
		return s
	case w.seen & (onlyB | both):
		return o
	}
	return Space{dim: s.dim, rects: append([]geometry.Rect(nil), w.out[k]...)}
}

// run sweeps the d-dimensional canonical lists a and b along axis d-1. Both
// are sequences of bands — runs of rectangles sharing one extent on that
// axis — sorted and disjoint, so one merge of the two band sequences visits
// every elementary segment of the axis on which membership in a band of a
// and in a band of b is constant. A segment inside one operand only
// contributes that band's cross-section as it stands; a segment inside both
// recurses on the two (d-1)-dimensional cross-sections, down to single
// intervals at d == 1. Each contribution is appended as a band that is
// folded into the one before it when the two are adjacent and identical in
// cross-section, which is exactly the canonical form. The cost is one step
// per input rectangle plus the cross-sections of every segment.
//
// t carries Dim and the coordinates of the axes ≥ d that emitted rectangles
// take. The result is meaningful for a probe only.
func (w *sweeper) run(d int, a, b []geometry.Rect, t geometry.Rect) bool {
	if d == 1 {
		return w.run1(a, b, t)
	}
	ax := d - 1
	last := [2]int{-1, -1} // start of the last band appended to each output
	var i, j int           // current band of a is a[i:ie], of b is b[j:je]
	var alo, blo int64     // start of the unconsumed part of each
	ie, je := bandEnd(a, 0, ax), bandEnd(b, 0, ax)
	if len(a) > 0 {
		alo = a[0].Lo.C[ax]
	}
	if len(b) > 0 {
		blo = b[0].Lo.C[ax]
	}
	for {
		// Once one operand is exhausted the rest of the other is all of
		// one class; stop unless some output wants it.
		if w.exhausted(i == len(a), j == len(b)) {
			return false
		}
		var class uint8
		var src []geometry.Rect
		var hi int64
		switch {
		case j == len(b) || i < len(a) && alo < blo:
			class, src, hi = onlyA, a[i:ie], a[i].Hi.C[ax]
			t.Lo.C[ax] = alo
			if j < len(b) && blo <= hi {
				hi = blo - 1
			}
		case i == len(a) || blo < alo:
			class, src, hi = onlyB, b[j:je], b[j].Hi.C[ax]
			t.Lo.C[ax] = blo
			if i < len(a) && alo <= hi {
				hi = alo - 1
			}
		default:
			class, src, hi = both, a[i:ie], min(a[i].Hi.C[ax], b[j].Hi.C[ax])
			t.Lo.C[ax] = alo
		}
		t.Hi.C[ax] = hi

		start := [2]int{len(w.out[0]), len(w.out[1])}
		switch {
		case class == both:
			if w.run(d-1, src, b[j:je], t) {
				return true
			}
		case w.probe:
			if w.keep[0]&class != 0 {
				return true
			}
		default:
			w.seen |= class
			for k, keep := range w.keep {
				if keep&class != 0 {
					w.out[k] = appendBand(w.out[k], src, ax, t)
				}
			}
		}
		if !w.probe {
			for k := range w.out {
				last[k] = w.fold(k, last[k], start[k], ax)
			}
		}

		if class != onlyB {
			if hi < a[i].Hi.C[ax] {
				alo = hi + 1
			} else if i = ie; i < len(a) {
				alo, ie = a[i].Lo.C[ax], bandEnd(a, i, ax)
			}
		}
		if class != onlyA {
			if hi < b[j].Hi.C[ax] {
				blo = hi + 1
			} else if j = je; j < len(b) {
				blo, je = b[j].Lo.C[ax], bandEnd(b, j, ax)
			}
		}
	}
}

// exhausted reports that the walk can stop: both operands are used up, or
// one is and no output wants what is left of the other, which is all of one
// class.
func (w *sweeper) exhausted(aDone, bDone bool) bool {
	kept := w.keep[0] | w.keep[1]
	switch {
	case aDone && bDone:
		return true
	case aDone && kept&onlyB == 0:
		w.seen |= onlyB
		return true
	case bDone && kept&onlyA == 0:
		w.seen |= onlyA
		return true
	}
	return false
}

// run1 is the base of the recursion: the same merge over two sorted lists
// of disjoint, non-adjacent intervals, where a band is one interval, its
// cross-section is a point, and folding is joining abutting intervals.
func (w *sweeper) run1(a, b []geometry.Rect, t geometry.Rect) bool {
	first := [2]int{len(w.out[0]), len(w.out[1])}
	var i, j int
	var alo, blo int64
	if len(a) > 0 {
		alo = a[0].Lo.C[0]
	}
	if len(b) > 0 {
		blo = b[0].Lo.C[0]
	}
	for {
		if w.exhausted(i == len(a), j == len(b)) {
			return false
		}
		var class uint8
		var lo, hi int64
		switch {
		case j == len(b) || i < len(a) && alo < blo:
			class, lo, hi = onlyA, alo, a[i].Hi.C[0]
			if j < len(b) && blo <= hi {
				hi = blo - 1
			}
		case i == len(a) || blo < alo:
			class, lo, hi = onlyB, blo, b[j].Hi.C[0]
			if i < len(a) && alo <= hi {
				hi = alo - 1
			}
		default:
			class, lo, hi = both, alo, min(a[i].Hi.C[0], b[j].Hi.C[0])
		}

		if w.probe {
			if w.keep[0]&class != 0 {
				return true
			}
		} else {
			w.seen |= class
			for k, keep := range w.keep {
				if keep&class == 0 {
					continue
				}
				if out := w.out[k]; len(out) > first[k] && out[len(out)-1].Hi.C[0]+1 == lo {
					out[len(out)-1].Hi.C[0] = hi
				} else {
					t.Lo.C[0], t.Hi.C[0] = lo, hi
					w.out[k] = append(out, t)
				}
			}
		}

		if class != onlyB {
			if hi < a[i].Hi.C[0] {
				alo = hi + 1
			} else if i++; i < len(a) {
				alo = a[i].Lo.C[0]
			}
		}
		if class != onlyA {
			if hi < b[j].Hi.C[0] {
				blo = hi + 1
			} else if j++; j < len(b) {
				blo = b[j].Lo.C[0]
			}
		}
	}
}

// overlaps1 reports whether two sorted lists of disjoint 1-D intervals
// share a point. For each interval of the shorter list it gallops over the
// longer, from where the last search stopped, to the first interval ending
// at or after its start, which overlaps it unless it starts past its end.
// m ≤ n intervals cost O(m log(n/m)) steps, where the sweep takes O(m+n).
func overlaps1(a, b []geometry.Rect) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	j := 0
	for _, r := range a {
		if j = gallop(b, j, r.Lo.C[0]); j == len(b) {
			return false
		}
		if b[j].Lo.C[0] <= r.Hi.C[0] {
			return true
		}
	}
	return false
}

// gallop returns the first k ≥ i with rs[k] ending at or after x, or
// len(rs): it probes i, i+1, i+3, i+7, … until an interval ends there, then
// bisects the last step.
func gallop(rs []geometry.Rect, i int, x int64) int {
	lo, hi := i, i // every interval before lo ends before x; hi is the probe
	for step := 1; hi < len(rs) && rs[hi].Hi.C[0] < x; step *= 2 {
		lo, hi = hi+1, hi+step
	}
	hi = min(hi, len(rs))
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if rs[m].Hi.C[0] < x {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// bandEnd returns the end of the band of rs that starts at i: the run of
// rectangles with one extent on axis ax.
func bandEnd(rs []geometry.Rect, i, ax int) int {
	if i == len(rs) {
		return i
	}
	lo := rs[i].Lo.C[ax]
	for i++; i < len(rs) && rs[i].Lo.C[ax] == lo; i++ {
	}
	return i
}

// appendBand appends the cross-section src (its axes below ax) as a band
// with t's extent on ax and on every axis above it.
func appendBand(dst, src []geometry.Rect, ax int, t geometry.Rect) []geometry.Rect {
	for _, r := range src {
		for x := ax; x < t.Dim; x++ {
			r.Lo.C[x], r.Hi.C[x] = t.Lo.C[x], t.Hi.C[x]
		}
		dst = append(dst, r)
	}
	return dst
}

// fold merges the band out[k][start:] into the band out[k][last:start]
// when they are adjacent on ax and have identical cross-sections, and
// returns the start of what is then the last band.
func (w *sweeper) fold(k, last, start, ax int) int {
	out := w.out[k]
	n := len(out) - start
	if n == 0 {
		return last
	}
	if last < 0 || start-last != n || out[last].Hi.C[ax]+1 != out[start].Lo.C[ax] {
		return start
	}
	for x := 0; x < n; x++ {
		p, c := &out[last+x], &out[start+x]
		for y := 0; y < ax; y++ {
			if p.Lo.C[y] != c.Lo.C[y] || p.Hi.C[y] != c.Hi.C[y] {
				return start
			}
		}
	}
	hi := out[start].Hi.C[ax]
	for x := last; x < start; x++ {
		out[x].Hi.C[ax] = hi
	}
	w.out[k] = out[:start]
	return last
}

// span returns the extent of a non-empty s on its highest axis: bands are
// sorted and disjoint there, so the first and the last rectangle bound it.
func (s Space) span() (lo, hi int64) {
	ax := s.dim - 1
	return s.rects[0].Lo.C[ax], s.rects[len(s.rects)-1].Hi.C[ax]
}

// spanDisjoint reports in O(1) that s and o cannot share a point: one is
// empty or their extents on the highest axis are disjoint.
func (s Space) spanDisjoint(o Space) bool {
	if s.IsEmpty() || o.IsEmpty() {
		return true
	}
	slo, shi := s.span()
	olo, ohi := o.span()
	return shi < olo || ohi < slo
}
