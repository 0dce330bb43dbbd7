package data

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"visibility/internal/geometry"
	"visibility/internal/index"
	"visibility/internal/privilege"
)

func TestStoreBasics(t *testing.T) {
	s := NewStore(index.FromRect(geometry.R2(0, 0, 3, 3)))
	if s.Len() != 0 || s.Dim() != 2 {
		t.Fatal("empty store wrong")
	}
	p := geometry.Pt2(1, 2)
	if _, ok := s.Get(p); ok {
		t.Error("Get on empty store")
	}
	s.Set(p, 3.5)
	if v, ok := s.Get(p); !ok || v != 3.5 {
		t.Errorf("Get = %v, %v", v, ok)
	}
	s.Set(p, 4)
	if v, ok := s.Get(p); s.Len() != 1 || !ok || v != 4 {
		t.Error("Set should overwrite")
	}
	if _, ok := s.Get(geometry.Pt2(4, 0)); ok {
		t.Error("Get outside the space")
	}
	defer func() {
		if recover() == nil {
			t.Error("Set outside the space should panic")
		}
	}()
	s.Set(geometry.Pt2(4, 0), 1)
}

func TestCloneIsDeep(t *testing.T) {
	s := NewStore(index.FromRect(geometry.R1(0, 3)))
	s.Set(geometry.Pt1(0), 1)
	c := s.Clone()
	c.Set(geometry.Pt1(0), 2)
	c.Set(geometry.Pt1(1), 2)
	if v, _ := s.Get(geometry.Pt1(0)); v != 1 || s.Len() != 1 {
		t.Error("Clone aliases original")
	}
	if !s.Equal(s.Clone()) {
		t.Error("clone should be equal")
	}
}

func TestRestrict(t *testing.T) {
	s := NewStore(index.FromRect(geometry.R1(0, 9)))
	s.Fill(func(p geometry.Point) float64 { return float64(p.C[0]) })
	r := s.Restrict(index.FromRect(geometry.R1(3, 5)))
	if r.Len() != 3 {
		t.Errorf("Restrict len = %d", r.Len())
	}
	if v, ok := r.Get(geometry.Pt1(4)); !ok || v != 4 {
		t.Error("Restrict value wrong")
	}
	if _, ok := r.Get(geometry.Pt1(6)); ok {
		t.Error("Restrict kept out-of-range point")
	}
	// Restricting to undefined points yields holes, not zeros.
	r2 := s.Restrict(index.FromRect(geometry.R1(8, 12)))
	if r2.Len() != 2 {
		t.Errorf("Restrict over partial definition len = %d", r2.Len())
	}
}

func TestEachSortedAndEqual(t *testing.T) {
	s := NewStore(index.FromRect(geometry.R2(0, 0, 9, 9)))
	s.Set(geometry.Pt2(1, 1), 1)
	s.Set(geometry.Pt2(0, 2), 2)
	s.Set(geometry.Pt2(5, 0), 3)
	var order []geometry.Point
	s.Each(func(p geometry.Point, _ float64) { order = append(order, p) })
	want := []geometry.Point{geometry.Pt2(5, 0), geometry.Pt2(1, 1), geometry.Pt2(0, 2)}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("Each order = %v, want %v", order, want)
		}
	}

	o := s.Clone()
	if !s.Equal(o) {
		t.Error("Equal on clone failed")
	}
	o.Set(geometry.Pt2(9, 9), 0)
	if s.Equal(o) {
		t.Error("Equal on different stores")
	}
	if s.Diff(o) == "" {
		t.Error("Diff should describe mismatch")
	}
	if s.Diff(s.Clone()) != "" {
		t.Error("Diff of equal stores should be empty")
	}
}

// The oracle for the slab store is a plain point map kept here, in the
// test: core.Seq, the arbiter of every analyzer, runs on the same Store
// code as the engines it judges, so nothing downstream can vouch for it.
type model map[geometry.Point]float64

// check holds s to m: the same defined points with the same values, Each
// in strictly ascending Point.Less order, every other point of the space
// (and its surroundings) undefined.
func (m model) check(t *testing.T, what string, s *Store, space index.Space) {
	t.Helper()
	if s.Len() != len(m) {
		t.Fatalf("%s: Len = %d, model has %d (space %v)", what, s.Len(), len(m), space)
	}
	want := make([]geometry.Point, 0, len(m))
	for p := range m {
		want = append(want, p)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j], space.Dim()) })
	i := 0
	s.Each(func(p geometry.Point, v float64) {
		if i >= len(want) || p != want[i] || v != m[p] {
			t.Fatalf("%s: Each visit %d = %v:%v, model order %v (space %v)", what, i, p, v, want, space)
		}
		i++
	})
	if i != len(want) {
		t.Fatalf("%s: Each visited %d points, model has %d", what, i, len(want))
	}
	b := space.Bounds()
	for a := 0; a < space.Dim(); a++ {
		b.Lo.C[a]--
		b.Hi.C[a]++
	}
	b.Each(func(p geometry.Point) bool {
		v, ok := s.Get(p)
		if mv, mok := m[p]; ok != mok || v != mv {
			t.Fatalf("%s: Get(%v) = %v, %v; model %v, %v (space %v)", what, p, v, ok, mv, mok, space)
		}
		return true
	})
}

// storeOps decodes raw into a dim-dimensional multi-rectangle destination
// and source store and a sequence of Set, Get, CopyFrom, Fold, Restrict,
// Clone, Fill and Map (into a fresh store and in place) calls on them, checking the stores against their
// models after every call. The space decoder is index's fuzz decoder:
// up to 9 rectangles, coordinates 0..15, extents 1..5.
func storeOps(t *testing.T, raw []byte, dim int) {
	take := func() int64 {
		if len(raw) == 0 {
			return 0
		}
		v := int64(raw[0])
		raw = raw[1:]
		return v
	}
	space := func() index.Space {
		n := int(take() % 10)
		rs := make([]geometry.Rect, 0, n)
		for i := 0; i < n; i++ {
			r := geometry.Rect{Dim: dim}
			for a := 0; a < dim; a++ {
				r.Lo.C[a] = take() % 16
				r.Hi.C[a] = r.Lo.C[a] + take()%5
			}
			rs = append(rs, r)
		}
		return index.FromRects(dim, rs...)
	}
	point := func() geometry.Point {
		var p geometry.Point
		for a := 0; a < dim; a++ {
			p.C[a] = take() % 20
		}
		return p
	}
	ops := []privilege.ReduceOp{privilege.OpSum, privilege.OpProd, privilege.OpMin, privilege.OpMax}

	dsp, ssp := space(), space()
	dst, src := NewStore(dsp), NewStore(ssp)
	dm, sm := model{}, model{}
	for step := 0; len(raw) > 0; step++ {
		switch take() % 10 {
		case 0, 1: // Set on either store, at a point of its space
			st, sp, m := dst, dsp, dm
			if take()%2 == 1 {
				st, sp, m = src, ssp, sm
			}
			if p := point(); sp.Contains(p) {
				v := float64(take()%7) - 2
				st.Set(p, v)
				m[p] = v
			}
		case 2: // CopyFrom
			pts := space()
			dst.CopyFrom(src, pts)
			pts.Intersect(dsp).Each(func(p geometry.Point) bool {
				if v, ok := sm[p]; ok {
					dm[p] = v
				}
				return true
			})
		case 3: // Fold
			pts, op := space(), ops[take()%4]
			dst.Fold(src, pts, op)
			pts.Intersect(dsp).Each(func(p geometry.Point) bool {
				if v, ok := sm[p]; ok {
					cur, ok := dm[p]
					if !ok {
						cur = privilege.Identity(op)
					}
					dm[p] = privilege.Apply(op, cur, v)
				}
				return true
			})
		case 4: // Restrict; the restriction becomes the source
			ssp = space()
			src, sm = dst.Restrict(ssp), model{}
			ssp.Each(func(p geometry.Point) bool {
				if v, ok := dm[p]; ok {
					sm[p] = v
				}
				return true
			})
		case 5: // Clone is deep and equal; the clone becomes the destination
			c := dst.Clone()
			if !c.Equal(dst) || !dst.Equal(c) || dst.Diff(c) != "" {
				t.Fatalf("step %d: clone differs: %s", step, dst.Diff(c))
			}
			if p := point(); dsp.Contains(p) {
				v := dm[p] + 1
				c.Set(p, v)
				if c.Equal(dst) || dst.Equal(c) || dst.Diff(c) == "" {
					t.Fatalf("step %d: Equal after setting %v to %v in the clone only", step, p, v)
				}
				dm.check(t, "cloned-from", dst, dsp)
				dm[p] = v
			}
			dst = c
		case 6: // Fill the source
			k := float64(take() % 5)
			f := func(p geometry.Point) float64 { return k + float64(p.C[0]) + 3*float64(p.C[dim-1]) }
			src.Fill(f)
			ssp.Each(func(p geometry.Point) bool {
				sm[p] = f(p)
				return true
			})
		case 7: // Map the destination into a fresh store over the same space
			out := NewStore(dsp)
			out.Map(dst, func(p geometry.Point, cur float64) float64 { return 2*cur + float64(p.C[0]) })
			m := model{}
			dsp.Each(func(p geometry.Point) bool {
				m[p] = 2*dm[p] + float64(p.C[0])
				return true
			})
			m.check(t, "mapped", out, dsp)
		case 8: // the source becomes the destination
			dst, dsp, dm = src, ssp, sm
			ssp = space()
			src, sm = NewStore(ssp), model{}
		case 9: // Map the destination in place
			f := func(p geometry.Point, cur float64) float64 { return 2*cur + float64(p.C[0]) - float64(p.C[dim-1]) }
			dst.Map(dst, f)
			dsp.Each(func(p geometry.Point) bool {
				dm[p] = f(p, dm[p])
				return true
			})
		}
		dm.check(t, "dst", dst, dsp)
		sm.check(t, "src", src, ssp)
	}
}

func TestStoreVsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 150; i++ {
		raw := make([]byte, 40+rng.Intn(400))
		rng.Read(raw)
		for dim := 1; dim <= 3; dim++ {
			storeOps(t, raw, dim)
		}
	}
}

func FuzzStoreVsMap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 3, 5, 2, 1, 4, 4, 6, 2, 0, 0, 1, 2, 3, 2, 1, 0, 4, 3, 1, 0, 3, 3, 5, 1, 7, 8, 2})
	f.Add([]byte{9, 0, 2, 3, 1, 5, 0, 6, 4, 11, 3, 15, 2, 8, 1, 10, 0, 13, 2, 9, 1, 1, 5, 3, 2, 7, 1, 9, 0, 12, 4, 14, 3, 4, 2, 8, 8, 2, 2, 6, 1, 2, 1, 0, 4, 4, 3, 1, 5, 1, 4, 2, 3, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<8 {
			return // every byte costs a full check of both stores
		}
		for dim := 1; dim <= 3; dim++ {
			storeOps(t, raw, dim)
		}
	})
}

// Rectangle order is not Point.Less order once a band holds two
// rectangles: Each must go row by row across both.
func TestEachOrderAcrossBand(t *testing.T) {
	sp := index.FromRects(2, geometry.R2(0, 0, 1, 2), geometry.R2(4, 0, 5, 2), geometry.R2(0, 3, 5, 3))
	if sp.NumRects() != 3 {
		t.Fatalf("want a two-rectangle band plus one, got %v", sp)
	}
	s := NewStore(sp)
	s.Fill(func(p geometry.Point) float64 { return float64(10*p.C[1] + p.C[0]) })
	var got []float64
	s.Each(func(_ geometry.Point, v float64) { got = append(got, v) })
	want := []float64{0, 1, 4, 5, 10, 11, 14, 15, 20, 21, 24, 25, 30, 31, 32, 33, 34, 35}
	if len(got) != len(want) {
		t.Fatalf("Each = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Each = %v, want %v", got, want)
		}
	}
}

// TestValuesInSlabOrder pins Values to the order Fill visits, slab by
// slab in rectangle order (not Each's order across a band), with an
// undefined point reading 0.
func TestValuesInSlabOrder(t *testing.T) {
	sp := index.FromRects(2, geometry.R2(0, 0, 1, 2), geometry.R2(4, 0, 5, 2), geometry.R2(0, 3, 5, 3))
	s := NewStore(sp)
	s.Fill(func(p geometry.Point) float64 { return float64(10*p.C[1] + p.C[0]) })
	want := []float64{0, 1, 10, 11, 20, 21, 4, 5, 14, 15, 24, 25, 30, 31, 32, 33, 34, 35}
	if got := s.Values(); !slices.Equal(got, want) {
		t.Fatalf("Values = %v, want %v", got, want)
	}

	part := NewStore(sp)
	part.Set(geometry.Pt2(4, 1), 7)
	want = make([]float64, len(want))
	want[8] = 7
	if got := part.Values(); !slices.Equal(got, want) {
		t.Fatalf("Values of a partly defined store = %v, want %v", got, want)
	}
}
