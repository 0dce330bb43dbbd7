// Package eqset is the equivalence-set kernel shared by Warnock's algorithm
// (paper §6) and ray casting (§7). The state is a set of equivalence sets —
// pairs of a point set and a history — maintaining the invariant that every
// operation in a set's history is relevant to every point of the set, so a
// scan needs no spatial test, only privilege interference.
//
// Analyze is Figure 9 once: refine the sets a requirement's region
// partially overlaps into inside/outside halves, scan the histories of the
// sets inside it, then commit the launch to them. What differs between the
// two algorithms is where the sets live and what a write does to them, and
// that is all a Store supplies: Warnock keeps the refinement tree and
// resets each written set's history; ray casting keeps buckets or a K-d
// tree and replaces the written sets by one fresh set (Figure 11).
package eqset

import (
	"slices"

	"visibility/internal/core"
	"visibility/internal/fault"
	"visibility/internal/index"
	"visibility/internal/obs/recorder"
	"visibility/internal/region"
)

// Node is one piece of geometry a set can wear: a point set and what is a
// pure function of it, each resolved at most once — the node owning it (§8)
// and, per region, how the region's space cuts it. A node outlives the sets
// that wear it: a coalesced set refined again along the same lines finds
// its halves in Cuts instead of sweeping, which is what a refinement tree
// that never coalesces gets for free. Nodes are reachable only from live
// sets and from what a store roots, and identity is the pointer. Cut and
// Kernel.Owner fill a node in lazily with no lock, so a node belongs to the
// goroutine driving its Kernel.
type Node struct {
	Pts index.Space
	// Cuts is what Cut remembers, sorted by region ID.
	Cuts []Cut
	// owner is Kernel.Owner's answer, valid once owned.
	owner int32
	owned bool
}

// Cut is how a region's space relates to a node's points: disjoint (In is
// nil), covered (In is the node itself and Out is nil), or split into
// In = Pts ∩ space and Out = Pts − space.
type Cut struct {
	Region  int
	In, Out *Node
}

// Cut returns how r's space cuts n, sweeping the two point sets the first
// time r meets n and answering from Cuts from then on.
func (n *Node) Cut(r *region.Region) Cut {
	i, ok := slices.BinarySearchFunc(n.Cuts, r.ID, func(c Cut, id int) int { return c.Region - id })
	if !ok {
		c := Cut{Region: r.ID}
		// The predicate first: most first meetings are disjoint, and a
		// sweep builds both halves before it can say so.
		if n.Pts.Overlaps(r.Space) {
			if in, out := n.Pts.Split(r.Space); out.IsEmpty() {
				c.In = n
			} else {
				halves := &[2]Node{{Pts: in}, {Pts: out}}
				c.In, c.Out = &halves[0], &halves[1]
			}
		}
		if n.Cuts == nil {
			n.Cuts = make([]Cut, 0, 4) // most nodes meet at most four regions: one allocation, not three
		}
		n.Cuts = slices.Insert(n.Cuts, i, c)
	}
	return n.Cuts[i]
}

// Set is one equivalence set.
type Set[X any] struct {
	// G is the set's geometry; G.Pts never changes.
	G *Node
	// Hist is append-only, so the fragments of a split share their
	// parent's entries until one of them appends.
	Hist []core.Entry
	// Dead is set once the set has been replaced (by a refinement, or by
	// the store moving its contents into fresh sets) or pruned by a write;
	// the sets found for a requirement are looked up again before commit
	// if any of them died in between.
	Dead bool
	// At is the store's placement of the set (tree node, bucket, id).
	// Fragments start at their parent's placement.
	At X
}

// Store holds the live equivalence sets of every field. Both methods
// identify a requirement as t.Reqs[ri], whose region is never empty.
type Store[X any] interface {
	// Refine returns the live sets that tile the requirement's region,
	// applying Kernel.Split to every live set overlapping it. commit is
	// false for the requirement's first, materialize-phase visit and true
	// when commit must look the sets up again.
	Refine(t *core.Task, ri int, commit bool) []*Set[X]
	// Write commits a write of the requirement's region over inside, the
	// live sets tiling it.
	Write(t *core.Task, ri int, inside []*Set[X])
}

// Kernel drives one Store. It runs on exactly one goroutine (the submit
// side, §3.2) and mutates its state with no lock.
type Kernel[X any] struct {
	Opts  core.Options // normalized
	Stats core.Stats
	store Store[X]
	span  string // name + ".analyze", built once rather than per launch
}

// New creates the kernel of the analyzer called name over store.
func New[X any](name string, opts core.Options, store Store[X]) *Kernel[X] {
	return &Kernel[X]{Opts: opts.Normalize(), store: store, span: name + ".analyze"}
}

// Owner returns the node owning n's state (§8), asking Opts.Owner the
// first time and the node itself from then on.
func (k *Kernel[X]) Owner(n *Node) int {
	if !n.owned {
		n.owner, n.owned = int32(k.Opts.Owner(n.Pts)), true
	}
	return int(n.owner)
}

// Touch charges ops units of work to the owner of s.
func (k *Kernel[X]) Touch(s *Set[X], ops int64) {
	k.Opts.Probe.Touch(k.Owner(s.G), ops)
}

// Split applies the refinement rule of Figure 9 to s, a live set
// overlapping r. A set r covers stays whole: in is s and rest is nil.
// Otherwise s dies and two fragments partition it, both carrying its full
// history: in is s ∩ r and rest is s − r. The eq.split fault forces the
// refinement on a covered set of more than one point, so that rest lies
// inside r too (forced) — semantics-preserving, it only breaks code that
// secretly depends on covered sets staying whole; a forced cut is not
// geometry and is never remembered. The store places the fragments.
func (k *Kernel[X]) Split(s *Set[X], r *region.Region) (in, rest *Set[X], forced bool) {
	k.Stats.OverlapTests++
	// The store guarantees overlap, so c.In is never nil.
	c := s.G.Cut(r)
	if c.Out == nil {
		if vol := s.G.Pts.Volume(); vol > 1 {
			var v uint64
			if forced, v = k.Opts.Faults.FireValue(fault.EqSplit, vol); forced {
				a, b := s.G.Pts.SplitAt(1 + int64(v%uint64(vol-1)))
				c = Cut{In: &Node{Pts: a}, Out: &Node{Pts: b}}
			}
		}
		if !forced {
			return s, nil, false
		}
	}
	s.Dead = true
	k.Stats.SetsCreated += 2
	k.Opts.Recorder.Log(recorder.KindEqSplit, 2, int64(len(s.Hist)))
	hist := s.Hist[:len(s.Hist):len(s.Hist)] // an append to either half copies
	halves := &[2]Set[X]{{G: c.In, Hist: hist, At: s.At}, {G: c.Out, Hist: hist, At: s.At}}
	return &halves[0], &halves[1], forced
}

// privRuns counts maximal runs of identical privileges in a history — the
// epochs a scan actually tests for interference.
func privRuns(hist []core.Entry) int64 {
	var runs int64
	for i, e := range hist {
		if i == 0 || !e.Priv.Same(hist[i-1].Priv) {
			runs++
		}
	}
	return runs
}

// Analyze observes the launch of t (core.Analyzer's contract).
func (k *Kernel[X]) Analyze(t *core.Task) *core.Result {
	span := k.Opts.Spans.Begin(k.span, "analysis")
	defer span.End()
	scan := core.NewScan(&k.Stats, t)

	// materialize: refine, then scan each constituent equivalence set.
	insides := make([][]*Set[X], len(t.Reqs))
	for ri, req := range t.Reqs {
		if req.Region.Space.IsEmpty() {
			// No points: nothing can interfere and nothing materializes.
			// Empty pieces of explicit or dependent partitions and
			// clipped boundary halos produce these.
			continue
		}
		scan.Begin(ri, req)
		insides[ri] = k.store.Refine(t, ri, false)
		for _, s := range insides[ri] {
			// Consecutive entries with one privilege form an epoch (e.g.
			// N same-operator reductions): interference is decided once
			// per epoch, as in Legion's user lists, so the charged work
			// is the number of privilege runs, not entries.
			k.Touch(s, privRuns(s.Hist))
			for _, e := range s.Hist {
				k.Stats.EntriesScanned++
				scan.Entry(e, s.G.Pts)
			}
		}
	}

	// commit: record the operation in each constituent set (Figure 9
	// lines 30-31); what a write does to them is the store's.
	for ri, req := range t.Reqs {
		if req.Region.Space.IsEmpty() {
			continue
		}
		// Reuse the constituent sets found during materialize unless
		// another requirement of this task (same field, overlapping
		// region) has refined or pruned them since.
		inside := insides[ri]
		for _, s := range inside {
			if s.Dead {
				inside = k.store.Refine(t, ri, true)
				break
			}
		}
		if req.Priv.IsWrite() {
			k.store.Write(t, ri, inside)
			continue
		}
		for _, s := range inside {
			s.Hist = append(s.Hist, core.Entry{Task: t.ID, Req: ri, Priv: req.Priv, Pts: s.G.Pts})
			k.Touch(s, 1)
		}
	}
	return scan.Result()
}
