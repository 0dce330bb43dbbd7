package core

import (
	"slices"

	"visibility/internal/index"
	"visibility/internal/privilege"
)

// Scan accumulates one launch's analysis output. It is the single place a
// live history entry becomes a dependence and a plan entry (materialize,
// Figure 6 line 4): every analyzer finds the entries that share points with
// a requirement its own way, then hands each one to Entry.
//
// An analyzer owns one Scan and starts it for every launch; Result copies
// out the deps, which the caller keeps, and lends the plans, which the
// next launch overwrites.
type Scan struct {
	// stats is the analyzer's counter block.
	stats *Stats
	req   Req
	deps  []int
	// vis holds every requirement's plan entries, one requirement's after
	// another: an analyzer scans each requirement in one stretch, so plan
	// ri is vis[plans[ri].lo:plans[ri].hi].
	vis   []Visible
	plans []bounds
	ri    int // the requirement being materialized
	// out is the plan header slice Result lends, one window of vis per
	// requirement.
	out [][]Visible

	// Result's chunks: the Results and their deps.
	results Chunk[Result]
	depsOut Chunk[int]
}

type bounds struct{ lo, hi int }

// Start begins the scan of t's launch, counting it in stats.
func (s *Scan) Start(stats *Stats, t *Task) {
	stats.Launches++
	s.stats, s.deps, s.vis = stats, s.deps[:0], s.vis[:0]
	s.plans = slices.Grow(s.plans[:0], len(t.Reqs))[:len(t.Reqs)]
	clear(s.plans)
}

// Begin directs the entries that follow at t's ri-th requirement.
func (s *Scan) Begin(ri int, req Req) {
	s.ri, s.req = ri, req
	s.plans[ri] = bounds{len(s.vis), len(s.vis)}
}

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
		s.vis = append(s.vis, Visible{Task: e.Task, Req: int(e.Req), Priv: e.Priv, Pts: pts})
		s.plans[s.ri].hi = len(s.vis)
	}
}

// Plan returns the current requirement's plan so far, in scan order.
func (s *Scan) Plan() []Visible { return s.vis[s.plans[s.ri].lo:] }

// Result closes the scan under the Result rule (see Result): the Result
// and its deps are the caller's, a window of the Scan's chunks; the plans
// are windows of the Scan's own entries, lent until the next Start. Every
// window has its capacity clipped, so an append to one copies.
func (s *Scan) Result() *Result {
	res := s.results.New()
	res.Deps = s.depsOut.Clone(DedupDeps(s.deps))
	s.out = s.out[:0]
	for _, b := range s.plans {
		var plan []Visible
		if b.lo < b.hi {
			plan = s.vis[b.lo:b.hi:b.hi]
		}
		s.out = append(s.out, plan)
	}
	res.Plans = slices.Clip(s.out)
	return res
}
