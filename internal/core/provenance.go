package core

import (
	"fmt"
	"sort"

	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/privilege"
)

// ReasonKind classifies how one dependence edge was discovered.
type ReasonKind uint8

const (
	// ReasonNone is the zero value: no provenance recorded.
	ReasonNone ReasonKind = iota
	// ReasonRegion is an interfering region-requirement pair found by an
	// analyzer's history scan — the content-based dependence test of §3.2.
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

// EdgeReason is the compact provenance of one dependence edge Src → Dst:
// which analyzer emitted it and which requirement pair interfered (fields,
// privileges, overlapping points) — or, for future and trace-replay edges,
// the ordering construct that produced them. Region names are not stored:
// requirement indices resolve against the task stream at explain time.
//
// Region reasons are canonical: AddReason keeps the lexicographically
// smallest interfering (DstReq, SrcReq) pair and widens Overlap across
// every capture of that pair, so the stored reason is a property of the
// workload's interference pattern alone — independent of equivalence-set
// identities and scan order.
type EdgeReason struct {
	Src int // producing (earlier) task ID
	Dst int // consuming (later) task ID

	Kind     ReasonKind
	Analyzer string // Name() of the emitting analyzer; "" for future edges

	// Region-interference provenance (Kind == ReasonRegion).
	SrcReq  int                 // producer's requirement index
	DstReq  int                 // consumer's requirement index
	Field   field.ID            // interfering field
	SrcPriv privilege.Privilege // producer's privilege (the history entry's)
	DstPriv privilege.Privilege // consumer's privilege (the requirement's)
	Overlap geometry.Rect       // bounding box of the interfering points

	// Trace-replay provenance (Kind == ReasonReplay): the committed trace
	// id the edge was instantiated from; -1 otherwise.
	Trace int
}

func (r EdgeReason) String() string {
	switch r.Kind {
	case ReasonFuture:
		return fmt.Sprintf("%d→%d future", r.Src, r.Dst)
	case ReasonReplay:
		return fmt.Sprintf("%d→%d replay(trace %d, %s)", r.Src, r.Dst, r.Trace, r.Analyzer)
	case ReasonRegion:
		return fmt.Sprintf("%d.%d %v ⟂ %d.%d %v field %d (%s)",
			r.Src, r.SrcReq, r.SrcPriv, r.Dst, r.DstReq, r.DstPriv, r.Field, r.Analyzer)
	}
	return fmt.Sprintf("%d→%d none", r.Src, r.Dst)
}

// TaskCost is one launch's deterministic cost sample, in the virtual units
// of the distributed cost model: AnalysisOps is the launch's analysis
// volume (requirements analyzed plus dependence edges discovered — a
// property of the task stream and its graph, not of analyzer internals),
// ExecVirt the points its requirements touch (the virtual execution time
// of a unit-cost-per-point kernel). Both replay identically run to run
// AND across analyzers, so critical paths weighted by them are
// byte-reproducible — unlike wall-clock span durations or measured
// operation counters.
type TaskCost struct {
	AnalysisOps int64
	ExecVirt    int64
}

// Provenance accumulates dependence provenance: one EdgeReason per
// discovered edge and one TaskCost per launch. Like the analyzers that
// feed it, a Provenance is driven by the single goroutine that submits
// launches; readers must be on that goroutine (the runtime owner / session
// worker). It carries no lock by design — the nil-fast-path Options hook
// keeps it entirely off the analysis path when disabled.
type Provenance struct {
	reasons [][]EdgeReason // indexed by consumer (Dst) task ID; insertion order
	costs   []TaskCost     // indexed by task ID
}

// NewProvenance creates an empty provenance store.
func NewProvenance() *Provenance { return &Provenance{} }

// AddReason records r, keeping at most one reason per edge Src → Dst.
//
// When both the stored and the incoming reason are region captures, the
// canonical one survives: the lexicographically smallest (DstReq, SrcReq)
// interfering pair, with Overlap widened (bounding-box union) across every
// capture of that pair. The set of attempted captures — which requirement
// pairs interfere at some live point, and the points that make them
// interfere — is a per-point property of the workload, so the canonical
// reason is identical no matter which equivalence sets reported it or in
// what order. Bounding-box union is commutative and associative, so
// capture order never shows through.
//
// Across kinds the first capture wins: a future edge recorded at launch,
// or a replay edge recorded when a trace instantiated the dependence, is
// the provenance the runtime acted on — a later region re-discovery (e.g.
// a post-invalidation re-analysis) never overwrites it.
func (p *Provenance) AddReason(r EdgeReason) {
	if r.Kind == ReasonRegion {
		r.Trace = -1
	}
	for len(p.reasons) <= r.Dst {
		p.reasons = append(p.reasons, nil)
	}
	rs := p.reasons[r.Dst]
	for i := range rs {
		if rs[i].Src != r.Src {
			continue
		}
		old := &rs[i]
		if old.Kind != ReasonRegion || r.Kind != ReasonRegion {
			return // first capture wins across kinds
		}
		switch {
		case r.DstReq < old.DstReq || (r.DstReq == old.DstReq && r.SrcReq < old.SrcReq):
			*old = r
		case r.DstReq == old.DstReq && r.SrcReq == old.SrcReq:
			old.Overlap = old.Overlap.Union(r.Overlap)
		}
		return
	}
	p.reasons[r.Dst] = append(rs, r)
}

// of returns dst's recorded reasons without growing the table.
func (p *Provenance) of(dst int) []EdgeReason {
	if dst < 0 || dst >= len(p.reasons) {
		return nil
	}
	return p.reasons[dst]
}

// Reasons returns the recorded reasons for dst's incoming edges, sorted by
// producer ID ascending (a fresh slice; callers may keep it).
func (p *Provenance) Reasons(dst int) []EdgeReason {
	out := append([]EdgeReason(nil), p.of(dst)...)
	sort.Slice(out, func(i, j int) bool { return out[i].Src < out[j].Src })
	return out
}

// ReasonCount returns how many of dst's incoming edges have a recorded
// reason, copying nothing.
func (p *Provenance) ReasonCount(dst int) int { return len(p.of(dst)) }

// AddCost records task's cost sample, growing the table as needed.
func (p *Provenance) AddCost(task int, c TaskCost) {
	if task < 0 {
		return
	}
	for len(p.costs) <= task {
		p.costs = append(p.costs, TaskCost{})
	}
	p.costs[task] = c
}

// Cost returns task's recorded cost sample (zero when none was recorded).
func (p *Provenance) Cost(task int) TaskCost {
	if task < 0 || task >= len(p.costs) {
		return TaskCost{}
	}
	return p.costs[task]
}
