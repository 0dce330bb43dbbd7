package bvh

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"visibility/internal/geometry"
	"visibility/internal/index"
)

func collect(query func(visit func(id int)) int) ([]int, int) {
	var ids []int
	cost := query(func(id int) { ids = append(ids, id) })
	sort.Ints(ids)
	return ids, cost
}

func TestBVHQueryExact(t *testing.T) {
	items := []Input{
		{Box: geometry.R2(0, 0, 3, 3), ID: 0},
		{Box: geometry.R2(4, 0, 7, 3), ID: 1},
		{Box: geometry.R2(0, 4, 3, 7), ID: 2},
		{Box: geometry.R2(4, 4, 7, 7), ID: 3},
	}
	tree := Build(items)
	if tree.Len() != 4 {
		t.Fatalf("Len = %d", tree.Len())
	}
	ids, _ := collect(func(v func(int)) int { return tree.Query(geometry.R2(1, 1, 5, 2), v) })
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Errorf("Query = %v, want [0 1]", ids)
	}
	ids, _ = collect(func(v func(int)) int { return tree.Query(geometry.R2(9, 9, 10, 10), v) })
	if len(ids) != 0 {
		t.Errorf("miss Query = %v", ids)
	}
}

func TestBVHEmpty(t *testing.T) {
	tree := Build(nil)
	if tree.Len() != 0 {
		t.Error("empty tree Len != 0")
	}
	if cost := tree.Query(geometry.R1(0, 1), func(int) { t.Error("visited") }); cost != 0 {
		t.Error("empty tree query should cost 0")
	}
}

func TestBVHAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		items := make([]Input, n)
		for i := range items {
			lo := geometry.Pt2(rng.Int63n(50), rng.Int63n(50))
			items[i] = Input{Box: geometry.Rect{
				Dim: 2, Lo: lo,
				Hi: geometry.Pt2(lo.C[0]+rng.Int63n(10), lo.C[1]+rng.Int63n(10)),
			}, ID: i}
		}
		tree := Build(items)
		for q := 0; q < 20; q++ {
			lo := geometry.Pt2(rng.Int63n(60), rng.Int63n(60))
			box := geometry.Rect{Dim: 2, Lo: lo, Hi: geometry.Pt2(lo.C[0]+rng.Int63n(20), lo.C[1]+rng.Int63n(20))}
			got, _ := collect(func(v func(int)) int { return tree.Query(box, v) })
			var want []int
			for _, it := range items {
				if it.Box.Overlaps(box) {
					want = append(want, it.ID)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d: Query(%v) = %v, want %v", trial, box, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d: Query(%v) = %v, want %v", trial, box, got, want)
				}
			}
		}
	}
}

func TestBVHQuerySpaceDedups(t *testing.T) {
	items := []Input{{Box: geometry.R1(0, 9), ID: 7}}
	tree := Build(items)
	sp := index.FromRects(1, geometry.R1(0, 2), geometry.R1(5, 6))
	count := 0
	tree.QuerySpace(sp, func(id int) { count++ })
	if count != 1 {
		t.Errorf("item visited %d times, want 1", count)
	}
}

func TestBVHLogarithmicTraversal(t *testing.T) {
	// Point query in a large balanced tree should visit O(log n) nodes.
	n := 1024
	items := make([]Input, n)
	for i := range items {
		items[i] = Input{Box: geometry.R1(int64(i)*10, int64(i)*10+9), ID: i}
	}
	tree := Build(items)
	_, cost := collect(func(v func(int)) int {
		return tree.Query(geometry.R1(5000, 5005), v)
	})
	if cost > 60 { // 2*log2(1024)+slack
		t.Errorf("point query visited %d nodes; expected logarithmic traversal", cost)
	}
}

func TestKDInsertQueryRemove(t *testing.T) {
	kd := NewKD(geometry.R2(0, 0, 63, 63), 16)
	if kd.NumCells() < 8 {
		t.Fatalf("NumCells = %d", kd.NumCells())
	}
	kd.Insert(1, geometry.R2(0, 0, 10, 10))
	kd.Insert(2, geometry.R2(40, 40, 50, 50))
	kd.Insert(3, geometry.R2(0, 0, 63, 63)) // spans many cells

	ids, _ := collect(func(v func(int)) int { return kd.Query(geometry.R2(5, 5, 6, 6), v) })
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Errorf("Query = %v, want [1 3]", ids)
	}

	kd.Remove(3)
	ids, _ = collect(func(v func(int)) int { return kd.Query(geometry.R2(5, 5, 6, 6), v) })
	if len(ids) != 1 || ids[0] != 1 {
		t.Errorf("after Remove: Query = %v, want [1]", ids)
	}
	kd.Remove(99) // unknown id is a no-op
	ids, _ = collect(func(v func(int)) int { return kd.QuerySpace(index.FromRect(geometry.R2(45, 45, 46, 46)), v) })
	if len(ids) != 1 || ids[0] != 2 {
		t.Errorf("QuerySpace = %v, want [2]", ids)
	}
}

func TestKDAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	kd := NewKD(geometry.R2(0, 0, 99, 99), 32)
	boxes := map[int]geometry.Rect{}
	for i := 0; i < 60; i++ {
		lo := geometry.Pt2(rng.Int63n(90), rng.Int63n(90))
		box := geometry.Rect{Dim: 2, Lo: lo, Hi: geometry.Pt2(lo.C[0]+rng.Int63n(10), lo.C[1]+rng.Int63n(10))}
		kd.Insert(i, box)
		boxes[i] = box
	}
	// Remove a third of them.
	for i := 0; i < 60; i += 3 {
		kd.Remove(i)
		delete(boxes, i)
	}
	for q := 0; q < 30; q++ {
		lo := geometry.Pt2(rng.Int63n(95), rng.Int63n(95))
		box := geometry.Rect{Dim: 2, Lo: lo, Hi: geometry.Pt2(lo.C[0]+rng.Int63n(15), lo.C[1]+rng.Int63n(15))}
		got, _ := collect(func(v func(int)) int { return kd.Query(box, v) })
		var want []int
		for id, b := range boxes {
			if b.Overlaps(box) {
				want = append(want, id)
			}
		}
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("Query(%v) = %v, want %v", box, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Query(%v) = %v, want %v", box, got, want)
			}
		}
	}
}

// QuerySpace is defined by Query: the rectangles of the space in turn, each
// item at its first hit, and the per-rectangle costs summed. Visit order and
// cost feed virtual time, so both are pinned — across removals and slot
// reuse for the K-d container, and with several boxes per ID for the tree —
// and the stamped dedup must not allocate.
func TestQuerySpaceMatchesPerRectQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	randBox := func(extent int64) geometry.Rect {
		lo := geometry.Pt2(rng.Int63n(90), rng.Int63n(90))
		return geometry.Rect{Dim: 2, Lo: lo, Hi: geometry.Pt2(lo.C[0]+rng.Int63n(extent), lo.C[1]+rng.Int63n(extent))}
	}
	kd := NewKD(geometry.R2(0, 0, 99, 99), 32)
	var inputs []Input
	for i := 0; i < 90; i++ {
		box := randBox(12)
		inputs = append(inputs, Input{Box: box, ID: i % 30})
		kd.Insert(i, box)
		if i%4 == 3 {
			kd.Remove(i - 2)
		}
	}
	tree := Build(inputs)

	type queryFunc func(geometry.Rect, func(int)) int
	reference := func(query queryFunc, sp index.Space) (ids []int, cost int) {
		seen := map[int]bool{}
		for _, r := range sp.Rects() {
			cost += query(r, func(id int) {
				if !seen[id] {
					seen[id] = true
					ids = append(ids, id)
				}
			})
		}
		return ids, cost
	}
	for _, c := range []struct {
		name       string
		query      queryFunc
		querySpace func(index.Space, func(int)) int
	}{
		{"tree", tree.Query, tree.QuerySpace},
		{"kd", kd.Query, kd.QuerySpace},
	} {
		for q := 0; q < 40; q++ {
			sp := index.FromRects(2, randBox(25), randBox(25), randBox(25))
			want, wantCost := reference(c.query, sp)
			var got []int
			visit := func(id int) { got = append(got, id) }
			gotCost := c.querySpace(sp, visit)
			if gotCost != wantCost || !slices.Equal(got, want) {
				t.Fatalf("%s: QuerySpace(%v) = %v cost %d, want %v cost %d", c.name, sp, got, gotCost, want, wantCost)
			}
			got = got[:0]
			if n := testing.AllocsPerRun(10, func() { got = got[:0]; c.querySpace(sp, visit) }); n != 0 {
				t.Fatalf("%s: QuerySpace allocates %v times per call", c.name, n)
			}
		}
	}
}
