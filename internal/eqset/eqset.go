// Package eqset is the equivalence-set kernel shared by Warnock's algorithm
// (paper §6) and ray casting (§7). The state is a set of equivalence sets —
// pairs of a point set and a history — maintaining the invariant that every
// operation in a set's history is relevant to every point of its
// footprint. An entry's footprint is the whole set unless the entry is a
// read that covered only part of it, and every mutating entry covers its
// whole set, so a scan needs no spatial test, only privilege interference.
//
// Analyze is Figure 9 once: refine the sets a requirement's region
// overlaps, scan each one's part inside the region, then commit the launch
// to those parts. What differs between the two algorithms is where the sets
// live, which of them a requirement cuts, and what a write does to them,
// and that is all a Store supplies: each set it finds comes with the
// region's cut of it (a Part). Warnock keeps the refinement tree, cuts
// every set a requirement partially overlaps and resets each written set's
// history; ray casting keeps buckets or a K-d tree, replaces the written
// sets by one fresh set (Figure 11), and cuts nothing for a read, since a
// read occludes nothing (§1): a part that is not its whole set makes the
// kernel record the read's footprint.
package eqset

import (
	"slices"

	"visibility/internal/core"
	"visibility/internal/fault"
	"visibility/internal/index"
	"visibility/internal/privilege"
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
	// Hist is append-only while shared: the fragments of a split share
	// their parent's entries, capacity clipped, until one appends. Any
	// other array belongs to one set, and a carve from the kernel's chunk
	// is capped at its own capacity, so a live set whose Hist has
	// cap > len owns its array (see Overwrite). An entry's Foot is 0
	// unless it is a read that covered part of the set: its footprint is
	// then G.Cut(region).In. A split narrows it, as every fragment is cut
	// by that region in turn, and drops it from a fragment the region
	// misses.
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

// Part is a live set a requirement's region overlaps and the region's cut
// of it: In holds the set's points inside the region, and Out is nil
// exactly when that is the whole set.
type Part[X any] struct {
	S *Set[X]
	Cut
}

// Whole returns the part of a set a region covers.
func Whole[X any](s *Set[X]) Part[X] { return Part[X]{S: s, Cut: Cut{In: s.G}} }

// Store holds the live equivalence sets of every field. Both methods
// identify a requirement as t.Reqs[ri], whose region is never empty.
type Store[X any] interface {
	// Refine appends to dst a part for every live set overlapping the
	// requirement's region and returns the extended slice, which the
	// store must not keep. A write or reduction's parts are whole: the
	// store applies Kernel.Split to every set the region overlaps. A read
	// may leave a set whole instead, and the kernel scans and records only
	// its part inside the region. commit is false for the requirement's
	// first, materialize-phase visit and true when commit must look the
	// sets up again.
	Refine(t *core.Task, ri int, commit bool, dst []Part[X]) []Part[X]
	// Write commits a write of the requirement's region over inside, the
	// whole parts tiling it.
	Write(t *core.Task, ri int, inside []Part[X])
}

// Root returns the set a store starts a field from: the root's points,
// holding the initial write of them by core.InitialTask.
func Root[X any](pts index.Space) *Set[X] {
	return &Set[X]{G: &Node{Pts: pts}, Hist: []core.Entry{{Task: core.InitialTask, Priv: privilege.Writes()}}}
}

// Kernel drives one Store over a region tree, which resolves footprints
// (core.Entry.Foot). It runs on exactly one goroutine (the submit side,
// §3.2) and mutates its state with no lock.
type Kernel[X any] struct {
	Opts  core.Options // normalized
	Stats core.Stats
	tree  *region.Tree
	store Store[X]

	// Analyze's scratch, reused by every launch: the scan, every part the
	// launch's refines found, and each requirement's run of them.
	scan    core.Scan
	parts   []Part[X]
	insides [][]Part[X]

	// The sets and history arrays a steady launch creates are carved
	// from chunks (core.Chunk): a dead set may still sit in a memo or in
	// a launch's insides, and a carve is never recycled.
	setChunk  core.Chunk[Set[X]]
	histChunk core.Chunk[core.Entry]
}

// New creates a kernel over store, whose requirements name regions of
// tree.
func New[X any](tree *region.Tree, opts core.Options, store Store[X]) *Kernel[X] {
	return &Kernel[X]{Opts: opts.Normalize(), tree: tree, store: store}
}

// Owner returns the node owning n's state (§8), asking Opts.Owner the
// first time and the node itself from then on.
func (k *Kernel[X]) Owner(n *Node) int {
	if !n.owned {
		n.owner, n.owned = int32(k.Opts.Owner(n.Pts)), true
	}
	return int(n.owner)
}

// NewSet returns a set wearing g with history hist, placed at at, carved
// from the kernel's chunk of sets.
func (k *Kernel[X]) NewSet(g *Node, hist []core.Entry, at X) *Set[X] {
	s := k.setChunk.New()
	s.G, s.Hist, s.At = g, hist, at
	return s
}

// carve returns an empty history array of capacity n from the kernel's
// chunk of entries, clipped so that an append past n copies instead of
// running into the next carve.
func (k *Kernel[X]) carve(n int) []core.Entry { return k.histChunk.Take(n)[:0] }

// Append records e in s's history, first copying the history into an
// array of its own if s does not own one (see Set.Hist).
func (k *Kernel[X]) Append(s *Set[X], e core.Entry) {
	if len(s.Hist) == cap(s.Hist) {
		// Room for as many entries again, as append's doubling gave.
		s.Hist = append(k.carve(max(4, 2*len(s.Hist))), s.Hist...)
	}
	s.Hist = append(s.Hist, e)
}

// Narrow returns hist as the history of g, a part of the points hist
// belonged to: each read is narrowed to its footprint inside g, and dropped
// when that is empty. It returns hist itself, shared, when no entry has a
// footprint; otherwise a carved array of the kernel's own.
func (k *Kernel[X]) Narrow(hist []core.Entry, g *Node) []core.Entry {
	i := slices.IndexFunc(hist, func(e core.Entry) bool { return e.Foot != 0 })
	if i < 0 {
		return hist
	}
	out := append(k.carve(len(hist)), hist[:i]...)
	for _, e := range hist[i:] {
		if e.Foot != 0 {
			switch c := g.Cut(k.tree.Region(int(e.Foot) - 1)); {
			case c.In == nil:
				continue // the read touched no point of g
			case c.Out == nil:
				e.Foot = 0 // the read covers g
			}
		}
		out = append(out, e)
	}
	return out
}

// Touch charges ops units of work to the owner of s.
func (k *Kernel[X]) Touch(s *Set[X], ops int64) {
	k.Opts.Probe.Touch(k.Owner(s.G), ops)
}

// Split applies the refinement rule of Figure 9 to s, a live set a region
// overlaps, whose cut of s is c. A set the region covers stays whole: in
// is s and rest is nil. Otherwise s dies and two fragments partition it,
// both carrying its history narrowed to them (Narrow): in wears c.In and
// rest c.Out. The eq.split fault forces the refinement on a covered set of
// more than one point, so that rest lies inside the region too (forced) —
// semantics-preserving, it only breaks code that secretly depends on
// covered sets staying whole; a forced cut is not geometry and is never
// remembered. The store places the fragments. The site's argument, the
// set's volume, is summed only under a fault plane: a nil plane never
// fires, whatever it is passed.
func (k *Kernel[X]) Split(s *Set[X], c Cut) (in, rest *Set[X], forced bool) {
	k.Stats.OverlapTests++
	if c.Out == nil {
		if k.Opts.Faults == nil {
			return s, nil, false
		}
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
	hist := s.Hist[:len(s.Hist):len(s.Hist)] // an append to either half copies
	return k.NewSet(c.In, k.Narrow(hist, c.In), s.At), k.NewSet(c.Out, k.Narrow(hist, c.Out), s.At), forced
}

// Overwrite returns the history of a set a write leaves holding only e.
// hist is a history the write replaces — the set's own, or a pruned set's
// — and its array is reused when hist owns it (see Set.Hist); otherwise
// the new array is carved with room for the reads and reductions that
// follow.
func (k *Kernel[X]) Overwrite(hist []core.Entry, e core.Entry) []core.Entry {
	if cap(hist) > len(hist) {
		return append(hist[:0], e)
	}
	return append(k.carve(4), e)
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

// scanSet scans s's history for the requirement being materialized, whose
// region holds pts of s. Every entry a requirement's privilege interferes
// with or reads covers pts: a mutating entry covers its whole set, and a
// read's footprint matters only to a mutation, which covers the whole set
// in turn.
func (k *Kernel[X]) scanSet(s *Set[X], pts index.Space) {
	// Consecutive entries with one privilege form an epoch (e.g. N
	// same-operator reductions): interference is decided once per epoch,
	// as in Legion's user lists, so the charged work is the number of
	// privilege runs, not entries.
	k.Touch(s, privRuns(s.Hist))
	for _, e := range s.Hist {
		k.Stats.EntriesScanned++
		k.scan.Entry(e, pts)
	}
}

// Analyze observes the launch of t (core.Analyzer's contract).
func (k *Kernel[X]) Analyze(t *core.Task) *core.Result {
	scan := &k.scan
	scan.Start(&k.Stats, t)

	// materialize: refine, then scan each constituent equivalence set's
	// part inside the region.
	k.parts = k.parts[:0]
	insides := slices.Grow(k.insides[:0], len(t.Reqs))[:len(t.Reqs)]
	clear(insides)
	k.insides = insides
	for ri, req := range t.Reqs {
		if req.Region.Space.IsEmpty() {
			// No points: nothing can interfere and nothing materializes.
			// Empty pieces of explicit or dependent partitions and
			// clipped boundary halos produce these.
			continue
		}
		scan.Begin(ri, req)
		n := len(k.parts)
		k.parts = k.store.Refine(t, ri, false, k.parts)
		insides[ri] = k.parts[n:]
		for _, p := range insides[ri] {
			k.scanSet(p.S, p.In.Pts)
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
		for _, p := range inside {
			if p.S.Dead {
				n := len(k.parts)
				k.parts = k.store.Refine(t, ri, true, k.parts)
				inside = k.parts[n:]
				break
			}
		}
		if req.Priv.IsWrite() {
			k.store.Write(t, ri, inside)
			continue
		}
		e := core.Entry{Task: t.ID, Req: int32(ri), Priv: req.Priv}
		for _, p := range inside {
			e.Foot = 0
			if p.Out != nil {
				e.Foot = int32(req.Region.ID) + 1 // the read is relevant to its footprint alone
			}
			k.Append(p.S, e)
			k.Touch(p.S, 1)
		}
	}
	return scan.Result()
}
