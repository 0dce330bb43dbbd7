package autotrace

// detector is the bounded-window online repeated-substring detector: it
// keeps the most recent Window launch hashes together with polynomial
// prefix hashes, and after each push can answer "does the stream end in
// MinReps consecutive copies of some period-P substring?". A period can
// only qualify if the newest hash recurs one period back, so detect walks
// the newest hash's earlier occurrences, nearest first, and tests only
// those periods: a non-repeating stream costs one map update per push, not
// a scan of every period up to MaxPeriod. Each candidate is confirmed with
// O(1) rolling range-hash comparisons, and finally re-checked element-wise
// so a rolling-hash collision cannot commit a bogus candidate. Overlapping
// candidates are resolved toward the smallest qualifying period: it is the
// primitive period of the repeating suffix, larger qualifying periods are
// repetitions of it, and per-launch replay cost is O(1) either way. A
// detector belongs to its Auto and runs on the Auto's goroutine.
type detector struct {
	window    int
	minPeriod int
	maxPeriod int
	minReps   int

	// hs holds the newest window of launch hashes in stream order; pre
	// holds polynomial prefix hashes over exactly hs (pre[i] covers
	// hs[0..i]) and prev[i] the index of the previous occurrence of hs[i]
	// (-1 when it has none in the window); newest maps each hash to its
	// newest index. All three are rebuilt on compaction. pows[k] is
	// rollBase^k, up to the longest range hashed: one period.
	hs     []uint64
	pre    []uint64
	prev   []int
	newest map[uint64]int
	pows   []uint64
}

// rollBase is the polynomial rolling-hash base. Arithmetic is mod 2^64;
// an odd base keeps the map position-sensitive.
const rollBase = 0x9ddfea08eb382d69

func newDetector(window, minPeriod, maxPeriod, minReps int) *detector {
	d := &detector{
		window: window, minPeriod: minPeriod, maxPeriod: maxPeriod, minReps: minReps,
		newest: make(map[uint64]int),
	}
	d.pows = make([]uint64, maxPeriod+1)
	d.pows[0] = 1
	for i := 1; i <= maxPeriod; i++ {
		d.pows[i] = d.pows[i-1] * rollBase
	}
	return d
}

// push appends one launch hash, evicting the oldest entries when the
// window overflows. Eviction compacts in bulk — drop the oldest half,
// rebuild the prefix hashes and occurrence links over the survivors — so
// the amortized cost stays O(1). The history detect can rely on is
// therefore window/2, the bound New derives maxPeriod from.
func (d *detector) push(h uint64) {
	if len(d.hs) == d.window {
		half := d.window / 2
		n := copy(d.hs, d.hs[half:])
		d.hs = d.hs[:n]
		d.pre = d.pre[:0]
		d.prev = d.prev[:0]
		clear(d.newest)
		acc := uint64(0)
		for i, v := range d.hs {
			acc = acc*rollBase + v
			d.pre = append(d.pre, acc)
			d.prev = append(d.prev, d.link(v, i))
		}
	}
	acc := h
	if len(d.pre) > 0 {
		acc = d.pre[len(d.pre)-1]*rollBase + h
	}
	d.pre = append(d.pre, acc)
	d.prev = append(d.prev, d.link(h, len(d.hs)))
	d.hs = append(d.hs, h)
}

// link records i as h's newest index and returns the index it displaces
// (-1 when h has not occurred in the window).
func (d *detector) link(h uint64, i int) int {
	j, ok := d.newest[h]
	d.newest[h] = i
	if !ok {
		return -1
	}
	return j
}

// rangeHash returns the polynomial hash of hs[i:j) (0 <= i < j <=
// len(hs)).
func (d *detector) rangeHash(i, j int) uint64 {
	if i == 0 {
		return d.pre[j-1]
	}
	return d.pre[j-1] - d.pre[i-1]*d.pows[j-i]
}

// detect reports the smallest period P in [minPeriod, maxPeriod] such
// that the window currently ends in minReps consecutive copies of its
// last P hashes, or 0 when the stream's suffix is not (yet) repeating.
func (d *detector) detect() int {
	n := len(d.hs)
	for j := d.prev[n-1]; j >= 0; j = d.prev[j] {
		p := n - 1 - j
		if p > d.maxPeriod || n < d.minReps*p {
			return 0 // the remaining occurrences are further back still
		}
		if p >= d.minPeriod && d.copiesMatch(p) && d.copiesEqual(p) {
			return p
		}
	}
	return 0
}

// copiesMatch compares the last minReps period-p blocks by rolling range
// hash — O(minReps) regardless of p. It stays in front of copiesEqual,
// though that check is exact. A near-periodic stream (a loop body with one
// launch unique per iteration) tests a failing period at nearly every push,
// and copiesEqual alone would compare up to a period of hashes each time;
// without this filter BenchmarkDetect's near-periodic leg costs several
// times more per push.
func (d *detector) copiesMatch(p int) bool {
	n := len(d.hs)
	last := d.rangeHash(n-p, n)
	for r := 1; r < d.minReps; r++ {
		if d.rangeHash(n-(r+1)*p, n-r*p) != last {
			return false
		}
	}
	return true
}

// copiesEqual is the exact element-wise confirmation behind the rolling
// hashes, so a range-hash collision cannot commit a bogus candidate.
func (d *detector) copiesEqual(p int) bool {
	n := len(d.hs)
	for r := 1; r < d.minReps; r++ {
		a, b := d.hs[n-p:n], d.hs[n-(r+1)*p:n-r*p]
		for k := range a {
			if a[k] != b[k] {
				return false
			}
		}
	}
	return true
}

// tail returns the window's last p hashes in place, valid until the next
// push.
func (d *detector) tail(p int) []uint64 { return d.hs[len(d.hs)-p:] }

// candidate returns a copy of the window's last p hashes — the repeating
// unit each instance of a committed candidate reproduces.
func (d *detector) candidate(p int) []uint64 {
	return append([]uint64(nil), d.tail(p)...)
}
