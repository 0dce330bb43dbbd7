package graph

// Labels answers MustPrecede(a, b) — is a an ancestor of b in the
// dependence DAG? — in O(1) per query with no graph walk, in the spirit
// of DePa's parallelism labels: ordering is resolved by comparing
// per-task labels computed once, not by traversing edges at query time.
// Here the label is each task's level plus a packed ancestor bitset,
// built in one forward pass over the (already topologically ordered)
// launch stream.
type Labels struct {
	levels []int
	// anc[i] is task i's ancestor set (strict: excludes i), packed 64
	// tasks per word.
	anc   [][]uint64
	words int
}

// BuildLabels computes precedence labels for d. Cost is O(V·E/64) time
// and O(V²/64) space — for the session-sized streams the explain engine
// serves, cheap enough to build once and cache per stream length.
func (d *DAG) BuildLabels() *Labels {
	n := len(d.Tasks)
	l := &Labels{levels: d.Levels(), words: (n + 63) / 64}
	l.anc = make([][]uint64, n)
	for i := 0; i < n; i++ {
		row := make([]uint64, l.words)
		for _, p := range d.Deps[i] {
			row[p/64] |= 1 << (uint(p) % 64)
			for w, bits := range l.anc[p] {
				row[w] |= bits
			}
		}
		l.anc[i] = row
	}
	return l
}

// MustPrecede reports whether every legal execution runs a before b:
// a is a (transitive) dependence ancestor of b. A task does not precede
// itself. Out-of-range IDs report false. The level label rejects most
// negative queries without touching the bitset.
func (l *Labels) MustPrecede(a, b int) bool {
	if a < 0 || b < 0 || a >= len(l.levels) || b >= len(l.levels) || a == b {
		return false
	}
	if l.levels[a] >= l.levels[b] {
		return false
	}
	return l.anc[b][a/64]&(1<<(uint(a)%64)) != 0
}
