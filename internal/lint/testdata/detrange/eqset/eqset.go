// Package eqset seeds detrange violations in the shape of the real
// equivalence-set kernel. Its name makes it a hot path, where a map range
// must be proven order-insensitive: only stores into a map and appends
// sorted later in the same function pass.
package eqset

import "sort"

type set[X any] struct {
	hist []int
	at   X
}

type store[X any] struct {
	live map[int]*set[X]
}

func (st *store[X]) scan() []int {
	var deps []int
	for _, s := range st.live { // want `range over map st.live appends to deps with no sort of it later`
		deps = append(deps, s.hist...)
	}
	return deps
}

// count looks harmless, but in a hot path nothing unproven passes.
func (st *store[X]) count() int {
	n := 0
	for range st.live { // want `range over map st.live in a hot path`
		n++
	}
	return n
}

// sortedScan visits the sets by ascending id: the sanctioned pattern.
func (st *store[X]) sortedScan() []int {
	ids := make([]int, 0, len(st.live))
	for id := range st.live {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var deps []int
	for _, id := range ids {
		deps = append(deps, st.live[id].hist...)
	}
	return deps
}

// clone copies a map into a map: order-insensitive by construction.
func (st *store[X]) clone() map[int]*set[X] {
	out := make(map[int]*set[X], len(st.live))
	for id, s := range st.live {
		out[id] = s
	}
	return out
}

func (st *store[X]) allowed() int {
	n := 0
	//lint:allow detrange the loop only counts entries
	for range st.live {
		n++
	}
	return n
}
