package index_test

import (
	"testing"

	"visibility/internal/geometry"
	"visibility/internal/index"
	"visibility/internal/testutil"
)

// operands returns two spaces of at least 8 rectangles each that partially
// overlap, so that no operation can return one of them unchanged.
func operands(dim int) (index.Space, index.Space) {
	var xs, ys []geometry.Rect
	for i := int64(0); i < 12; i++ {
		x, y := geometry.Rect{Dim: dim}, geometry.Rect{Dim: dim}
		for a := 0; a < dim; a++ {
			x.Lo.C[a], x.Hi.C[a] = 10*i, 10*i+6
			y.Lo.C[a], y.Hi.C[a] = 10*i+4+i%2, 10*i+8
		}
		xs, ys = append(xs, x), append(ys, y)
	}
	return index.FromRects(dim, xs...), index.FromRects(dim, ys...)
}

// The predicates build nothing; every other operation allocates its
// exactly-sized result and nothing else.
func TestAlgebraAllocations(t *testing.T) {
	var sink int
	for dim := 1; dim <= 3; dim++ {
		x, y := operands(dim)
		if x.NumRects() < 8 || y.NumRects() < 8 {
			t.Fatalf("dim %d: operands too small: %d and %d rects", dim, x.NumRects(), y.NumRects())
		}
		for _, c := range []struct {
			name   string
			max    float64
			pooled bool
			op     func()
		}{
			{"Overlaps", 0, false, func() {
				if x.Overlaps(y) {
					sink++
				}
			}},
			{"Covers", 0, false, func() {
				if x.Covers(y) {
					sink++
				}
			}},
			{"Intersect", 1, true, func() { sink += x.Intersect(y).NumRects() }},
			{"Subtract", 1, true, func() { sink += x.Subtract(y).NumRects() }},
			{"Union", 1, true, func() { sink += x.Union(y).NumRects() }},
			{"Split", 2, true, func() {
				in, out := x.Split(y)
				sink += in.NumRects() + out.NumRects()
			}},
		} {
			if c.pooled && testutil.RaceEnabled() {
				continue
			}
			c.op() // grow the pooled buffers
			if got := testing.AllocsPerRun(200, c.op); got > c.max {
				t.Errorf("dim %d: %s allocates %v times per call, want at most %v", dim, c.name, got, c.max)
			}
		}
	}
}
