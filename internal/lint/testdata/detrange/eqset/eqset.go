// Package eqset seeds detrange violations in the shape of the real
// equivalence-set kernel: a generic store keyed by map, whose iteration
// order would decide the order sets are scanned and dependences emitted.
package eqset

type set[X any] struct {
	hist []int
	at   X
}

type store[X any] struct {
	live map[int]*set[X]
}

func (st *store[X]) scan() []int {
	var deps []int
	for _, s := range st.live { // want `range over map map\[int\]\*.*set\[X\] in a hot path`
		deps = append(deps, s.hist...)
	}
	return deps
}

// sortedScan visits the sets by ascending id: the sanctioned pattern.
func (st *store[X]) sortedScan(ids []int) []int {
	var deps []int
	for _, id := range ids {
		deps = append(deps, st.live[id].hist...)
	}
	return deps
}
