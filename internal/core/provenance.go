package core

import "visibility/internal/geometry"

// RegionReason derives why tasks[dst] depends on tasks[src] from the
// stream alone: the first (dstReq, srcReq) pair, in lexicographic order,
// whose requirements interfere and share a point no write between them
// overwrote — src's entry is still visible to dst there (§5.1 pruning, §7
// dominating writes). overlap is the bounding box of those surviving
// points. It reads only tasks (src, dst) and keeps nothing between
// queries.
//
// When no pair keeps a live point, the edge has no witness: an analyzer
// that reported it was conservative. The smallest interfering pair is
// returned then, with an empty overlap. srcReq is -1 when no requirement
// pair interferes at all.
func RegionReason(tasks []*Task, src, dst int) (srcReq, dstReq int, overlap geometry.Rect) {
	srcReq = -1
	s, d := tasks[src], tasks[dst]
	for di, dq := range d.Reqs {
		for si, sq := range s.Reqs {
			if !ReqsInterfere(sq, dq) {
				continue
			}
			live := sq.Region.Space.Intersect(dq.Region.Space)
			for k := src + 1; k < dst && !live.IsEmpty(); k++ {
				for _, q := range tasks[k].Reqs {
					if q.Field == dq.Field && q.Priv.IsWrite() {
						live = live.Subtract(q.Region.Space)
					}
				}
			}
			if !live.IsEmpty() {
				return si, di, live.Bounds()
			}
			if srcReq < 0 {
				srcReq, dstReq = si, di
			}
		}
	}
	return srcReq, dstReq, geometry.Rect{}
}

// Provenance is the retired capture store. Reasons are derived on demand
// (RegionReason), so nothing fills or reads it.
//
// Deprecated: ignored; kept while benchmarks/visperf still names it.
type Provenance struct{}

// NewProvenance returns an empty, unused Provenance.
//
// Deprecated: ignored; kept while benchmarks/visperf still names it.
func NewProvenance() *Provenance { return &Provenance{} }
