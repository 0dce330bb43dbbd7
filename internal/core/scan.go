package core

import (
	"visibility/internal/index"
	"visibility/internal/privilege"
)

// Scan accumulates one launch's analysis output. It is the single place a
// live history entry becomes a dependence and a plan entry (materialize,
// Figure 6 line 4): every analyzer finds the entries that share points with
// a requirement its own way, then hands each one to Entry.
type Scan struct {
	// stats is the analyzer's counter block.
	stats *Stats
	ri    int // the requirement being materialized
	req   Req
	deps  []int
	plans [][]Visible
}

// NewScan starts the scan of t's launch, counting it in stats.
func NewScan(stats *Stats, t *Task) Scan {
	stats.Launches++
	return Scan{stats: stats, plans: make([][]Visible, len(t.Reqs))}
}

// Begin directs the entries that follow at t's ri-th requirement.
func (s *Scan) Begin(ri int, req Req) { s.ri, s.req = ri, req }

// Entry accounts for history entry e, live on pts ⊆ the requirement's
// region: a dependence when the privileges interfere, and a plan entry
// when e produced values the requirement reads. Reductions read nothing
// (§5), so their plans stay nil.
func (s *Scan) Entry(e Entry, pts index.Space) {
	if privilege.Interferes(e.Priv, s.req.Priv) {
		s.deps = append(s.deps, e.Task)
		s.stats.DepsReported++
	}
	if !s.req.Priv.IsReduce() && e.Priv.Mutates() {
		s.plans[s.ri] = append(s.plans[s.ri], Visible{Task: e.Task, Req: e.Req, Priv: e.Priv, Pts: pts})
	}
}

// Plan returns the current requirement's plan so far, in scan order.
func (s *Scan) Plan() []Visible { return s.plans[s.ri] }

// Result closes the scan.
func (s *Scan) Result() *Result { return &Result{Deps: DedupDeps(s.deps), Plans: s.plans} }
