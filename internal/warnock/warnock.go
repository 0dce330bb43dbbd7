// Package warnock implements Warnock's algorithm for content-based
// coherence (paper §6) as a store over the eqset kernel: equivalence sets
// are only ever refined, never merged, so the history of refinements forms
// a search tree that acts as a bounding volume hierarchy (§6.1). Lookups
// descend from the root through refined nodes to the current leaves, and
// per-region results are memoized so repeated uses of the same region
// restart the search at the memoized sets rather than the root.
package warnock

import (
	"visibility/internal/core"
	"visibility/internal/eqset"
	"visibility/internal/field"
	"visibility/internal/index"
	"visibility/internal/region"
)

// Warnock is the equivalence-set coherence analyzer of §6.
type Warnock struct {
	tree *region.Tree
	k    *eqset.Kernel[*bnode]
	// state holds the per-field refinement trees and memo tables, mutated
	// by every Analyze with no lock: the analyzer runs on exactly one
	// goroutine (the submit side, §3.2).
	state map[field.ID]*fieldState

	// nextToken issues unique ids for refinement-tree nodes across fields.
	nextToken int64
	// leaves is lookup's scratch: the leaves one lookup found.
	leaves []*set

	// DisableMemo turns off the per-region memoization of constituent
	// equivalence sets (§6.1), so every lookup descends from the root —
	// an ablation knob for benchmarking the optimization.
	DisableMemo bool
}

// New creates a Warnock analyzer for tree.
func New(tree *region.Tree, opts core.Options) *Warnock {
	w := &Warnock{tree: tree, state: make(map[field.ID]*fieldState)}
	w.k = eqset.New[*bnode](tree, opts, w)
	return w
}

// Name implements core.Analyzer.
func (w *Warnock) Name() string { return "warnock" }

// Stats implements core.Analyzer.
func (w *Warnock) Stats() *core.Stats { return &w.k.Stats }

// Analyze implements core.Analyzer.
func (w *Warnock) Analyze(t *core.Task) *core.Result { return w.k.Analyze(t) }

// EquivalenceSets returns the number of live (leaf) equivalence sets for
// field f, for tests and the experiment harness.
func (w *Warnock) EquivalenceSets(f field.ID) int { return len(w.SetSpaces(f)) }

// SetSpaces returns the point sets of the live equivalence sets for field
// f, for invariant checks in tests.
func (w *Warnock) SetSpaces(f field.ID) []index.Space {
	fs, ok := w.state[f]
	if !ok {
		return []index.Space{w.tree.Root.Space} // the initial, untouched root set
	}
	var out []index.Space
	var walk func(*bnode)
	walk = func(b *bnode) {
		if b.set != nil {
			out = append(out, b.set.G.Pts)
			return
		}
		for _, c := range b.children {
			walk(c)
		}
	}
	walk(fs.root)
	return out
}

type (
	set  = eqset.Set[*bnode]
	part = eqset.Part[*bnode]
)

// overlaps is the one sweep a lookup makes, testing a node against a
// region met from the root; a variable so tests can count its calls.
var overlaps = index.Space.Overlaps

// bnode is a node of the refinement BVH. Leaves hold live equivalence sets;
// interior nodes record past refinements and are immutable once refined,
// which is what makes them safe to replicate across the machine (§6.1).
// Replication is on demand and per node: the first traversal through a
// freshly-refined interior node by each analyzing node must fetch it from
// its owner before it is cached locally — the construction/distribution
// cost that dominates Warnock's initialization at scale (§8.1). Fetches are
// reported through Probe.Fetch keyed by the node's id.
type bnode struct {
	g        *eqset.Node // the geometry of the set the node held: points, owner
	set      *set        // non-nil exactly at leaves
	children []*bnode
	id       int64
}

type fieldState struct {
	root *bnode
	memo [][]part // by region ID: the parts tiling the region at its last refine
}

// leaf places s at a fresh leaf node.
func (w *Warnock) leaf(s *set) *bnode {
	w.nextToken++
	s.At = &bnode{g: s.G, set: s, id: w.nextToken}
	return s.At
}

func (w *Warnock) fieldFor(f field.ID) *fieldState {
	fs, ok := w.state[f]
	if !ok {
		fs = &fieldState{
			root: w.leaf(eqset.Root[*bnode](w.tree.Root.Space)),
		}
		w.state[f] = fs
	}
	return fs
}

// lookup returns the live sets overlapping r, descending from the nodes
// of the sets memoized for r (or the root on first use). The slice is
// scratch, valid until the next lookup.
func (w *Warnock) lookup(fs *fieldState, r *region.Region) []*set {
	w.leaves = w.leaves[:0]
	if r.ID < len(fs.memo) && fs.memo[r.ID] != nil && !w.DisableMemo {
		// The memoized sets tile r, and refinement only partitions a
		// node, so every leaf below them lies in r: the descent tests
		// nothing.
		for _, p := range fs.memo[r.ID] {
			w.descend(p.S.At, r.Space, true)
		}
	} else {
		w.descend(fs.root, r.Space, false)
	}
	return w.leaves
}

// descend appends to w.leaves the sets at the leaves under b overlapping
// sp; inside says b's points lie in sp, so none needs testing.
func (w *Warnock) descend(b *bnode, sp index.Space, inside bool) {
	w.k.Stats.BVHVisited++
	// Testing a node costs work proportional to its rectangle complexity:
	// the residual spaces produced by piece-by-piece refinement fragment
	// into more and more rectangles, which is what makes constructing and
	// searching the refinement tree superlinear during initialization
	// (§8.1).
	ops := int64(b.g.Pts.NumRects())
	if b.set == nil {
		// Interior nodes are replicated on demand per analyzing node; the
		// probe decides whether this is a first fetch.
		w.k.Opts.Probe.Fetch(w.k.Owner(b.g), b.id, ops)
	} else {
		w.k.Opts.Probe.Visit(ops)
	}
	// The test is charged even when inside spares the sweep.
	w.k.Stats.OverlapTests++
	if !inside && !overlaps(b.g.Pts, sp) {
		return
	}
	if b.set != nil {
		w.leaves = append(w.leaves, b.set)
		return
	}
	for _, c := range b.children {
		w.descend(c, sp, inside)
	}
}

// Refine implements eqset.Store: a split leaf becomes an interior node over
// its two fragments.
func (w *Warnock) Refine(t *core.Task, ri int, _ bool, inside []part) []part {
	r := t.Reqs[ri].Region
	fs := w.fieldFor(t.Reqs[ri].Field)
	n := len(inside)
	for _, s := range w.lookup(fs, r) {
		w.k.Stats.SetsVisited++
		w.k.Touch(s, 1)
		in, rest, forced := w.k.Split(s, s.G.Cut(r))
		inside = append(inside, eqset.Whole(in))
		if rest == nil {
			continue
		}
		b := s.At
		b.set = nil
		b.children = []*bnode{w.leaf(in), w.leaf(rest)}
		// Refinement replaces this node's metadata: caches of the old
		// version are invalid, so it gets a fresh replication token and
		// every analyzing node must fetch it again (§6.1's immutability
		// begins only after the refinement).
		w.nextToken++
		b.id = w.nextToken
		if forced {
			inside = append(inside, eqset.Whole(rest))
		} else {
			w.k.Touch(s, 2)
		}
	}
	// The sets now tiling the region are exactly the leaves a later lookup
	// of it must start from; a memoized set that is refined afterwards
	// still names its (then interior) node.
	if r.ID >= len(fs.memo) {
		fs.memo = append(fs.memo, make([][]part, r.ID+1-len(fs.memo))...)
	}
	fs.memo[r.ID] = append(fs.memo[r.ID][:0], inside[n:]...)
	return inside
}

// Write implements eqset.Store: a write clears each set's prior history
// (Figure 9 lines 30-31).
func (w *Warnock) Write(t *core.Task, ri int, inside []part) {
	for _, p := range inside {
		p.S.Hist = w.k.Overwrite(p.S.Hist, core.Entry{Task: t.ID, Req: int32(ri), Priv: t.Reqs[ri].Priv})
		w.k.Touch(p.S, 1)
	}
}
