package index

import (
	"encoding/json"
	"reflect"
	"testing"

	"visibility/internal/geometry"
)

// decodeSpaces builds two index spaces of up to 9 rectangles each from fuzz
// bytes: a compact, deterministic decoder so the fuzzer explores rect-list
// structure.
func decodeSpaces(data []byte, dim int) (Space, Space) {
	ss := decodeN(data, dim, 2)
	return ss[0], ss[1]
}

// decodeN builds k index spaces the way decodeSpaces builds two.
func decodeN(data []byte, dim, k int) []Space {
	take := func() int64 {
		if len(data) == 0 {
			return 0
		}
		v := int64(data[0] % 16)
		data = data[1:]
		return v
	}
	ss := make([]Space, k)
	for i := range ss {
		n := int(take() % 10)
		rs := make([]geometry.Rect, 0, n)
		for j := 0; j < n; j++ {
			r := geometry.Rect{Dim: dim}
			for a := 0; a < dim; a++ {
				lo := take()
				r.Lo.C[a] = lo
				r.Hi.C[a] = lo + take()%5
			}
			rs = append(rs, r)
		}
		ss[i] = FromRects(dim, rs...)
	}
	return ss
}

// FuzzSetAlgebra checks every operation against the point-set oracle and
// for canonical output (checkAlgebra), then the algebraic laws that tie
// the operations to each other, on fuzzer-generated spaces in 1-D to 3-D,
// and UnionAll of 0 to 9 operands (checkUnionAll) in 1-D and 2-D.
func FuzzSetAlgebra(f *testing.F) {
	f.Add([]byte{2, 0, 3, 5, 2, 1, 4, 4, 6, 2})
	f.Add([]byte{})
	f.Add([]byte{3, 1, 1, 1, 1, 2, 2, 9, 9, 1, 0, 0, 15, 15})
	// One rectangle against nine: in 1-D the gallop searches the nine
	// for it.
	f.Add([]byte{1, 9, 1, 9, 0, 0, 2, 0, 4, 0, 6, 0, 8, 0, 10, 0, 12, 0, 14, 0, 15, 4})
	f.Add([]byte{9, 0, 2, 3, 1, 5, 0, 6, 4, 11, 3, 15, 2, 8, 1, 10, 0, 13, 2, 9, 1, 1, 5, 3, 2, 7, 1, 9, 0, 12, 4, 14, 3, 4, 2, 8, 8, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 0 {
			for dim := 1; dim <= 2; dim++ {
				checkUnionAll(t, dim, decodeN(data[1:], dim, int(data[0]%10)))
			}
		}
		for dim := 1; dim <= 3; dim++ {
			x, y := decodeSpaces(data, dim)
			checkAlgebra(t, x, y)
			checkAlgebra(t, y, x)

			inter := x.Intersect(y)
			diff := x.Subtract(y)
			uni := x.Union(y)

			// Partition law: X = (X\Y) ⊎ (X∩Y). Equal compares canonical
			// rectangle lists, so the rebuilt set also has X's structure.
			if diff.Overlaps(inter) {
				t.Fatalf("dim %d: X\\Y overlaps X∩Y: %v %v", dim, x, y)
			}
			if !diff.Union(inter).Equal(x) {
				t.Fatalf("dim %d: (X\\Y)∪(X∩Y) != X: %v %v", dim, x, y)
			}
			// Volume arithmetic.
			if uni.Volume() != x.Volume()+y.Volume()-inter.Volume() {
				t.Fatalf("dim %d: inclusion-exclusion failed: %v %v", dim, x, y)
			}
			// Symmetry.
			if !inter.Equal(y.Intersect(x)) || !uni.Equal(y.Union(x)) {
				t.Fatalf("dim %d: intersect or union not symmetric: %v %v", dim, x, y)
			}
			// Union is idempotent and absorbs; what it absorbs it covers.
			if !uni.Union(x).Equal(uni) || !uni.Covers(x) || !uni.Covers(y) {
				t.Fatalf("dim %d: union not absorbing: %v %v", dim, x, y)
			}
		}
	})
}

// FuzzContainsAgainstRects cross-checks point membership against the raw
// rectangle decomposition.
func FuzzContainsAgainstRects(f *testing.F) {
	f.Add([]byte{2, 1, 3, 6, 2}, int64(4), int64(0))
	f.Fuzz(func(t *testing.T, data []byte, px, py int64) {
		if px < 0 || px > 32 || py < 0 || py > 32 {
			return
		}
		x, _ := decodeSpaces(data, 2)
		p := geometry.Pt2(px, py)
		want := false
		for _, r := range x.Rects() {
			if r.Contains(p) {
				want = true
			}
		}
		if got := x.Contains(p); got != want {
			t.Fatalf("Contains(%v) = %v, rects say %v (%v)", p, got, want, x)
		}
	})
}

// FuzzFromRows drives the row decoder — the one both trust boundaries
// (checkpoint restore, wire workloads) go through — with arbitrary JSON:
// it must never panic, and whatever it accepts must survive
// decode → encode → decode unchanged.
func FuzzFromRows(f *testing.F) {
	f.Add(1, []byte(`[[0,9]]`))
	f.Add(2, []byte(`[[0,3,0,3],[2,5,2,5]]`))
	f.Add(2, []byte(`[[0,9]]`))
	f.Add(1, []byte(`[[9,0]]`))
	f.Add(0, []byte(`[]`))
	f.Add(3, []byte(`[[-9223372036854775808,9223372036854775807,0,0,1,1]]`))
	f.Fuzz(func(t *testing.T, dim int, raw []byte) {
		var rows [][]int64
		if json.Unmarshal(raw, &rows) != nil {
			return
		}
		sp, err := FromRows(dim, rows)
		if err != nil {
			return
		}
		enc := sp.Rows()
		again, err := FromRows(dim, enc)
		if err != nil {
			t.Fatalf("re-decoding %v (from %s): %v", enc, raw, err)
		}
		if !again.Equal(sp) || !reflect.DeepEqual(again.Rows(), enc) {
			t.Fatalf("not a fixed point: %s → %v → %v", raw, enc, again.Rows())
		}
	})
}
