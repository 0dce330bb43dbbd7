package core

import (
	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/privilege"
)

// ReasonKind classifies how one dependence edge came about.
type ReasonKind uint8

const (
	// ReasonNone is the zero value: no requirement pair interferes.
	ReasonNone ReasonKind = iota
	// ReasonRegion is an interfering region-requirement pair — the
	// content-based dependence test of §3.2.
	ReasonRegion
	// ReasonFuture is an explicit future (after) edge: the consumer waits
	// for the producer's scalar result, no region data involved.
	ReasonFuture
	// ReasonReplay is an edge instantiated from a committed trace during
	// replay: the analyzer never ran, the memoized offsets did.
	ReasonReplay
)

func (k ReasonKind) String() string {
	switch k {
	case ReasonRegion:
		return "region"
	case ReasonFuture:
		return "future"
	case ReasonReplay:
		return "replay"
	}
	return "none"
}

// EdgeReason is the provenance of one dependence edge Src → Dst: which
// analyzer's edge it is and which requirement pair interfered (fields,
// privileges, overlapping points) — or, for future and trace-replay edges,
// the ordering construct that produced it. Region names are not stored:
// requirement indices resolve against the task stream.
type EdgeReason struct {
	Src int // producing (earlier) task ID
	Dst int // consuming (later) task ID

	Kind     ReasonKind
	Analyzer string // base name of the analyzer; "" for future edges

	// Region-interference provenance (Kind == ReasonRegion).
	SrcReq  int                 // producer's requirement index
	DstReq  int                 // consumer's requirement index
	Field   field.ID            // interfering field
	SrcPriv privilege.Privilege // producer's privilege
	DstPriv privilege.Privilege // consumer's privilege
	Overlap geometry.Rect       // bounds of the points Dst still sees of Src

	// Trace-replay provenance (Kind == ReasonReplay): the committed trace
	// id the edge was instantiated from; -1 otherwise.
	Trace int
}

// RegionReason derives why tasks[dst] depends on tasks[src] from the
// stream alone: the first (DstReq, SrcReq) pair, in lexicographic order,
// whose requirements interfere and share a point no write between them
// overwrote — Src's entry is still visible to Dst there (§5.1 pruning, §7
// dominating writes). Overlap is the bounding box of those surviving
// points. It reads only tasks (src, dst) and keeps nothing between
// queries.
//
// When no pair keeps a live point, the edge has no witness: an analyzer
// that reported it was conservative. The reason then names the smallest
// interfering pair with an empty Overlap, and ok is false. A zero Kind
// means no requirement pair interferes at all.
func RegionReason(tasks []*Task, src, dst int, analyzer string) (r EdgeReason, ok bool) {
	r = EdgeReason{Src: src, Dst: dst, Analyzer: analyzer, Trace: -1}
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
			if r.Kind == ReasonNone || !live.IsEmpty() {
				r.Kind, r.SrcReq, r.DstReq = ReasonRegion, si, di
				r.Field, r.SrcPriv, r.DstPriv = dq.Field, sq.Priv, dq.Priv
			}
			if !live.IsEmpty() {
				r.Overlap = live.Bounds()
				return r, true
			}
		}
	}
	return r, false
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
