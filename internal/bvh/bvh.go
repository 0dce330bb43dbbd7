// Package bvh provides spatial acceleration structures: a static bounding
// volume hierarchy over rectangles (used by ray casting to locate the
// disjoint-complete partition pieces a region overlaps, §7.1) and a
// dynamic K-d-tree container for items with bounding boxes (the fallback
// when no disjoint-complete partition exists).
package bvh

import (
	"sort"

	"visibility/internal/geometry"
	"visibility/internal/index"
	"visibility/internal/region"
)

// Input is one item to index: a bounding box and a caller-defined ID.
type Input struct {
	Box geometry.Rect
	ID  int
}

// Tree is a static BVH built by median splits over box centers. Query
// only reads it; QuerySpace also writes the visit stamps, so it needs the
// tree to itself.
type Tree struct {
	nodes []node
	seen  stamps // per distinct item ID, for QuerySpace
}

type node struct {
	box         geometry.Rect
	left, right int // child indices; -1 for leaves
	id          int // item ID at leaves
	slot        int // dense index of id at leaves
}

// stamps marks members of a dense index set as seen during one query. A
// query opens a new generation instead of clearing the marks, so it costs
// one increment, not an allocation.
type stamps struct {
	at  []uint32
	gen uint32
}

// next opens a new generation, in which nothing is marked.
func (s *stamps) next() {
	if s.gen++; s.gen == 0 {
		clear(s.at)
		s.gen = 1
	}
}

// mark marks i and reports whether it was unmarked.
func (s *stamps) mark(i int) bool {
	if s.at[i] == s.gen {
		return false
	}
	s.at[i] = s.gen
	return true
}

// Build constructs a BVH over items. Empty boxes are permitted but never
// matched by queries. Build copies the input slice.
func Build(items []Input) *Tree {
	t := &Tree{}
	if len(items) == 0 {
		return t
	}
	work := make([]Input, len(items))
	copy(work, items)
	t.build(work)
	slots := make(map[int]int)
	for i := range t.nodes {
		if nd := &t.nodes[i]; nd.left == -1 {
			if _, ok := slots[nd.id]; !ok {
				slots[nd.id] = len(slots)
			}
			nd.slot = slots[nd.id]
		}
	}
	t.seen.at = make([]uint32, len(slots))
	return t
}

// BuildPartition constructs a BVH over every rectangle of every subregion
// of p, each with the subregion's index in p.Subregions as its ID. It
// indexes rectangles rather than subregion bounding boxes: pieces made of
// scattered blocks (e.g. a node block plus a wire block) would otherwise
// produce mutually-overlapping boxes and degrade every query to a full
// scan.
func BuildPartition(p *region.Partition) *Tree {
	var items []Input
	for i, sub := range p.Subregions {
		for _, r := range sub.Space.Rects() {
			items = append(items, Input{Box: r, ID: i})
		}
	}
	return Build(items)
}

func (t *Tree) build(items []Input) int {
	if len(items) == 1 {
		t.nodes = append(t.nodes, node{box: items[0].Box, left: -1, right: -1, id: items[0].ID})
		return len(t.nodes) - 1
	}
	box := items[0].Box
	for _, it := range items[1:] {
		box = box.Union(it.Box)
	}
	// Split on the longest axis by center.
	axis, span := 0, int64(-1)
	for a := 0; a < box.Dim; a++ {
		if s := box.Hi.C[a] - box.Lo.C[a]; s > span {
			span, axis = s, a
		}
	}
	sort.Slice(items, func(i, j int) bool {
		ci := items[i].Box.Lo.C[axis] + items[i].Box.Hi.C[axis]
		cj := items[j].Box.Lo.C[axis] + items[j].Box.Hi.C[axis]
		if ci != cj {
			return ci < cj
		}
		return items[i].ID < items[j].ID
	})
	mid := len(items) / 2
	idx := len(t.nodes)
	t.nodes = append(t.nodes, node{box: box})
	l := t.build(items[:mid])
	r := t.build(items[mid:])
	t.nodes[idx].left = l
	t.nodes[idx].right = r
	t.nodes[idx].id = -1
	return idx
}

// Len returns the number of indexed items.
func (t *Tree) Len() int {
	n := 0
	for _, nd := range t.nodes {
		if nd.left == -1 {
			n++
		}
	}
	return n
}

// Query calls visit for every item whose box overlaps box and returns the
// number of tree nodes visited (the traversal cost).
func (t *Tree) Query(box geometry.Rect, visit func(id int)) int {
	if len(t.nodes) == 0 {
		return 0
	}
	return t.query(0, box, visit, false)
}

// query visits the subtree at node i; with once set it skips the items
// already marked in the current generation of t.seen.
func (t *Tree) query(i int, box geometry.Rect, visit func(id int), once bool) int {
	nd := &t.nodes[i]
	if !nd.box.Overlaps(box) {
		return 1
	}
	if nd.left == -1 {
		if !once || t.seen.mark(nd.slot) {
			visit(nd.id)
		}
		return 1
	}
	return 1 + t.query(nd.left, box, visit, once) + t.query(nd.right, box, visit, once)
}

// QuerySpace calls visit for every item whose box overlaps any rectangle of
// sp, at most once per item, and returns nodes visited.
func (t *Tree) QuerySpace(sp index.Space, visit func(id int)) int {
	if len(t.nodes) == 0 {
		return 0
	}
	t.seen.next()
	cost := 0
	for _, r := range sp.Rects() {
		cost += t.query(0, r, visit, true)
	}
	return cost
}

// KD is a dynamic container over a fixed spatial decomposition: the root
// bounds are recursively split into cells, and items are registered in
// every cell their bounding box overlaps. Queries visit only cells
// overlapping the query box. Used by ray casting when no disjoint-complete
// partition is available to define buckets (§7.1).
type KD struct {
	cells  []geometry.Rect
	items  [][]int     // cell → slots of the items registered in it
	slots  []kdItem    // recycled through free
	free   []int       // vacant slots
	slotOf map[int]int // item ID → slot
	seen   stamps      // per slot
}

type kdItem struct {
	id    int
	box   geometry.Rect
	cells []int // the cells the item is registered in
}

// NewKD builds a K-d decomposition of bounds with approximately targetCells
// leaf cells.
func NewKD(bounds geometry.Rect, targetCells int) *KD {
	kd := &KD{slotOf: make(map[int]int)}
	var split func(r geometry.Rect, want int)
	split = func(r geometry.Rect, want int) {
		if want <= 1 || r.Volume() <= 1 {
			kd.cells = append(kd.cells, r)
			return
		}
		// Split the longest axis at the midpoint.
		axis, span := 0, int64(-1)
		for a := 0; a < r.Dim; a++ {
			if s := r.Hi.C[a] - r.Lo.C[a]; s > span {
				span, axis = s, a
			}
		}
		if span == 0 {
			kd.cells = append(kd.cells, r)
			return
		}
		mid := (r.Lo.C[axis] + r.Hi.C[axis]) / 2
		lo, hi := r, r
		lo.Hi.C[axis] = mid
		hi.Lo.C[axis] = mid + 1
		split(lo, want/2)
		split(hi, want-want/2)
	}
	split(bounds, targetCells)
	kd.items = make([][]int, len(kd.cells))
	return kd
}

// Insert registers item id with bounding box box.
func (kd *KD) Insert(id int, box geometry.Rect) {
	si := len(kd.slots)
	if n := len(kd.free); n > 0 {
		si, kd.free = kd.free[n-1], kd.free[:n-1]
	} else {
		kd.slots = append(kd.slots, kdItem{})
		kd.seen.at = append(kd.seen.at, 0)
	}
	it := &kd.slots[si]
	it.id, it.box, it.cells = id, box, it.cells[:0]
	kd.slotOf[id] = si
	for ci, cell := range kd.cells {
		if cell.Overlaps(box) {
			kd.items[ci] = append(kd.items[ci], si)
			it.cells = append(it.cells, ci)
		}
	}
}

// Remove deregisters item id. Removing an unknown id is a no-op.
func (kd *KD) Remove(id int) {
	si, ok := kd.slotOf[id]
	if !ok {
		return
	}
	for _, ci := range kd.slots[si].cells {
		list := kd.items[ci]
		for i, x := range list {
			if x == si {
				list[i] = list[len(list)-1]
				kd.items[ci] = list[:len(list)-1]
				break
			}
		}
	}
	delete(kd.slotOf, id)
	kd.free = append(kd.free, si)
}

// Query calls visit once for each item whose registered box overlaps box,
// and returns the number of cells examined.
func (kd *KD) Query(box geometry.Rect, visit func(id int)) int {
	kd.seen.next()
	return kd.query(box, visit)
}

// query visits the items overlapping box that are not yet marked in the
// current generation of kd.seen.
func (kd *KD) query(box geometry.Rect, visit func(id int)) int {
	cost := 0
	for ci, cell := range kd.cells {
		if !cell.Overlaps(box) {
			continue
		}
		cost++
		for _, si := range kd.items[ci] {
			if it := &kd.slots[si]; it.box.Overlaps(box) && kd.seen.mark(si) {
				visit(it.id)
			}
		}
	}
	return cost
}

// QuerySpace calls visit once per item overlapping any rectangle of sp.
func (kd *KD) QuerySpace(sp index.Space, visit func(id int)) int {
	kd.seen.next()
	cost := 0
	for _, r := range sp.Rects() {
		cost += kd.query(r, visit)
	}
	return cost
}
