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
	"visibility/internal/core"
	"visibility/internal/fault"
	"visibility/internal/index"
	"visibility/internal/obs/recorder"
)

// Set is one equivalence set.
type Set[X any] struct {
	Pts  index.Space
	Hist []core.Entry
	// Dead is set once the set has been replaced (by a refinement, or by
	// the store moving its contents into fresh sets) or pruned by a write;
	// the sets found for a requirement are looked up again before commit
	// if any of them died in between.
	Dead bool
	// owner is Kernel.Owner's answer, valid once owned: Pts never changes,
	// so the node owning the set's state is resolved once, not per touch.
	// The two share Dead's word, so a set is no larger for them.
	owned bool
	owner int32
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
	Opts core.Options // normalized
	// confined to analyzer
	Stats core.Stats
	// confined to analyzer
	store Store[X]
	name  string
	span  string // name + ".analyze", built once rather than per launch
}

// New creates the kernel of the analyzer called name over store.
func New[X any](name string, opts core.Options, store Store[X]) *Kernel[X] {
	return &Kernel[X]{Opts: opts.Normalize(), store: store, name: name, span: name + ".analyze"}
}

// Owner returns the node owning s's state (§8), asking Opts.Owner the
// first time and the set itself from then on.
func (k *Kernel[X]) Owner(s *Set[X]) int {
	if !s.owned {
		s.owner, s.owned = int32(k.Opts.Owner(s.Pts)), true
	}
	return int(s.owner)
}

// Touch charges ops units of work to the owner of s.
func (k *Kernel[X]) Touch(s *Set[X], ops int64) {
	k.Opts.Probe.Touch(k.Owner(s), ops)
}

// Split applies the refinement rule of Figure 9 to s, a live set
// overlapping sp. A set sp covers stays whole: in is s and rest is nil.
// Otherwise s dies and two fragments partition it, both carrying its full
// history: in is s ∩ sp and rest is s − sp. The eq.split fault forces the
// refinement on a covered set of more than one point, so that rest lies
// inside sp too (forced) — semantics-preserving, it only breaks code that
// secretly depends on covered sets staying whole. The store places the
// fragments.
func (k *Kernel[X]) Split(s *Set[X], sp index.Space) (in, rest *Set[X], forced bool) {
	k.Stats.OverlapTests++
	// One pass yields both halves; sp covers s exactly when nothing of s
	// is left outside it. The store guarantees overlap, so a is never
	// empty.
	a, b := s.Pts.Split(sp)
	if b.IsEmpty() {
		if vol := s.Pts.Volume(); vol > 1 {
			var v uint64
			if forced, v = k.Opts.Faults.FireValue(fault.EqSplit, vol); forced {
				a, b = s.Pts.SplitAt(1 + int64(v%uint64(vol-1)))
			}
		}
		if !forced {
			return s, nil, false
		}
	}
	s.Dead = true
	k.Stats.SetsCreated += 2
	k.Opts.Recorder.Log(recorder.KindEqSplit, 2, int64(len(s.Hist)))
	in = &Set[X]{Pts: a, Hist: append([]core.Entry(nil), s.Hist...), At: s.At}
	return in, &Set[X]{Pts: b, Hist: s.Hist, At: s.At}, forced
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
//
// confined to analyzer
func (k *Kernel[X]) Analyze(t *core.Task) *core.Result {
	span := k.Opts.Spans.Begin(k.span, "analysis")
	defer span.End()
	scan := core.NewScan(k.name, k.Opts.Prov, &k.Stats, t)

	// materialize: refine, then scan each constituent equivalence set.
	insides := make([][]*Set[X], len(t.Reqs))
	for ri, req := range t.Reqs {
		if req.Region.Space.IsEmpty() {
			// No points: nothing can interfere and nothing materializes.
			// Common under sharding, where a requirement's restriction to
			// most atoms is empty, and for clipped boundary halos.
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
				scan.Entry(e, s.Pts)
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
			s.Hist = append(s.Hist, core.Entry{Task: t.ID, Req: ri, Priv: req.Priv, Pts: s.Pts})
			k.Touch(s, 1)
		}
	}
	return scan.Result()
}
