// Package raycast implements the ray-casting coherence algorithm (paper
// §7), the algorithm in production use by Legion, as a store over the
// eqset kernel: a task writing a region R creates a single fresh
// equivalence set for R and prunes every set R occludes (dominating_write,
// Figure 11), so equivalence sets coalesce as well as refine and the
// steady-state population stays small.
//
// Because coalescing destroys the monotone refinement tree Warnock's
// algorithm uses as its BVH, ray casting instead derives its acceleration
// structure from a disjoint-complete partition of the root region chosen by
// a heuristic from the partitions tasks actually use: equivalence sets are
// stored in per-piece buckets, with a static BVH over the piece bounding
// boxes to find the buckets a region overlaps. If the application migrates
// to a different disjoint-complete partition, the sets are re-bucketed; if
// no such partition exists, a K-d decomposition of the root bounds is used
// instead (§7.1).
//
// An iterative program coalesces and refines along the same lines every
// iteration, so the sets wear interned geometry (eqset.Node): each piece
// roots a node, a write's fresh set wears piece ∩ region as that node's
// cut, and every node remembers how the regions it met cut it. A
// steady-state refine therefore looks its halves up, with no set algebra;
// re-bucketing drops the nodes together with the sets.
package raycast

import (
	"fmt"
	"slices"
	"sort"

	"visibility/internal/bvh"
	"visibility/internal/core"
	"visibility/internal/eqset"
	"visibility/internal/fault"
	"visibility/internal/field"
	"visibility/internal/index"
	"visibility/internal/region"
)

// migrateAfter is how many consecutive launches must use a different
// disjoint-complete partition before the equivalence sets are re-bucketed.
const migrateAfter = 8

// RayCast is the ray-casting coherence analyzer of §7.
type RayCast struct {
	tree *region.Tree
	k    *eqset.Kernel[place]
	// state holds the per-field interval lists and acceleration indexes,
	// mutated by every Analyze with no lock: the analyzer runs on exactly
	// one goroutine (the submit side, §3.2).
	state map[field.ID]*fieldState
	// written is Write's scratch: the buckets of the sets one write prunes.
	written []int
	// cands is Refine's scratch: the parts of the sets its region overlaps.
	cands []part
}

// New creates a ray-casting analyzer for tree.
func New(tree *region.Tree, opts core.Options) *RayCast {
	rc := &RayCast{tree: tree, state: make(map[field.ID]*fieldState)}
	rc.k = eqset.New[place](tree, opts, rc)
	return rc
}

// Name implements core.Analyzer.
func (rc *RayCast) Name() string { return "raycast" }

// Stats implements core.Analyzer.
func (rc *RayCast) Stats() *core.Stats { return &rc.k.Stats }

// Analyze implements core.Analyzer.
func (rc *RayCast) Analyze(t *core.Task) *core.Result { return rc.k.Analyze(t) }

// place is where the store keeps a set.
type place struct {
	id     int
	bucket int // owning DCP piece index; -1 in K-d mode
}

type (
	set  = eqset.Set[place]
	part = eqset.Part[place]
)

// bucketList is one region's BVH query over the pieces: the buckets found
// and the work the traversal took, which every later use is charged again.
type bucketList struct {
	buckets        []int
	tests, visited int64
}

type fieldState struct {
	nextID int

	// geom roots the interned geometry: one node per piece (the root's in
	// K-d mode), so a bucket's owner is its node's and piece ∩ region, what
	// a write's fresh set wears, is the node's cut by the region. Pieces and
	// regions are immutable, so it lasts until installAccel drops it with
	// the sets wearing its nodes.
	geom []*eqset.Node

	// Disjoint-complete-partition mode; memo is resolved once per
	// installAccel like geom.
	dcp     *region.Partition
	pieces  *bvh.Tree // over piece rectangles
	buckets [][]*set
	memo    map[int]bucketList // region ID → overlappingBuckets' answer

	// K-d fallback mode (dcp == nil).
	kd     *bvh.KD
	kdSets map[int]*set

	// Migration heuristic state.
	misses    int
	candidate *region.Partition
}

// EquivalenceSets returns the number of live equivalence sets for field f.
func (rc *RayCast) EquivalenceSets(f field.ID) int { return len(rc.SetSpaces(f)) }

// SetSpaces returns the point sets of the live equivalence sets for field
// f, for invariant checks in tests.
func (rc *RayCast) SetSpaces(f field.ID) []index.Space {
	fs, ok := rc.state[f]
	if !ok {
		return []index.Space{rc.tree.Root.Space}
	}
	var out []index.Space
	for _, s := range fs.live() {
		out = append(out, s.G.Pts)
	}
	return out
}

// live returns the field's live sets: bucket by bucket, or by K-d id.
func (fs *fieldState) live() []*set {
	var live []*set
	for _, b := range fs.buckets {
		live = append(live, b...)
	}
	for _, id := range sortedIntKeys(fs.kdSets) {
		live = append(live, fs.kdSets[id])
	}
	return live
}

// CurrentPartition returns the disjoint-complete partition currently
// defining field f's buckets, or nil when the K-d fallback is active.
func (rc *RayCast) CurrentPartition(f field.ID) *region.Partition {
	if fs, ok := rc.state[f]; ok {
		return fs.dcp
	}
	return nil
}

func (rc *RayCast) fieldFor(f field.ID, hint *region.Region) *fieldState {
	fs, ok := rc.state[f]
	if ok {
		return fs
	}
	fs = &fieldState{}
	rc.installAccel(fs, rc.chooseDCP(hint), []*set{eqset.Root[place](rc.tree.Root.Space)})
	rc.state[f] = fs
	return fs
}

// rootPartitionOf returns the root-level partition whose subtree contains
// r, or nil for the root itself.
func (rc *RayCast) rootPartitionOf(r *region.Region) *region.Partition {
	cur := r
	for cur.Parent != nil {
		if cur.Parent.Parent.IsRoot() {
			return cur.Parent
		}
		cur = cur.Parent.Parent
	}
	return nil
}

// chooseDCP picks the disjoint-complete partition to bucket by: the one
// containing hint when it qualifies, else the first disjoint-complete
// partition of the root, else nil (K-d fallback).
func (rc *RayCast) chooseDCP(hint *region.Region) *region.Partition {
	if hint != nil {
		if p := rc.rootPartitionOf(hint); p != nil && p.DisjointComplete() {
			return p
		}
	}
	for _, p := range rc.tree.Root.Partitions {
		if p.DisjointComplete() {
			return p
		}
	}
	return nil
}

// installAccel (re)builds the acceleration structure for dcp (or the K-d
// fallback when dcp is nil) and distributes sets into it, splitting sets
// at piece boundaries so each lives in exactly one bucket.
func (rc *RayCast) installAccel(fs *fieldState, dcp *region.Partition, sets []*set) {
	fs.dcp = dcp
	fs.misses = 0
	fs.candidate = nil
	fs.pieces = nil
	fs.buckets = nil
	fs.geom = nil
	fs.memo = nil
	fs.kd = nil
	fs.kdSets = nil

	if dcp == nil {
		fs.geom = []*eqset.Node{&eqset.Node{Pts: rc.tree.Root.Space}}
		fs.kd = bvh.NewKD(rc.tree.Root.Space.Bounds(), 64)
		fs.kdSets = make(map[int]*set)
		for _, s := range sets {
			s.G = &eqset.Node{Pts: s.G.Pts} // not the old structure's node and the cuts under it
			rc.kdInsert(fs, s)
		}
		return
	}

	fs.geom = make([]*eqset.Node, len(dcp.Subregions))
	for i, sub := range dcp.Subregions {
		fs.geom[i] = &eqset.Node{Pts: sub.Space}
	}
	fs.pieces = bvh.BuildPartition(dcp)
	fs.buckets = make([][]*set, len(dcp.Subregions))
	fs.memo = make(map[int]bucketList)
	for _, s := range sets {
		// Re-bucketing replaces s by per-piece copies, each with the
		// history narrowed to it: an earlier requirement of the launch
		// being analyzed may still hold s, and must look its sets up again
		// rather than commit to the orphan.
		s.Dead = true
		for i, sub := range dcp.Subregions {
			rc.k.Stats.OverlapTests++
			part := s.G.Pts.Intersect(sub.Space)
			if part.IsEmpty() {
				continue
			}
			g := &eqset.Node{Pts: part}
			rc.insert(fs, &set{G: g, Hist: rc.k.Narrow(s.Hist[:len(s.Hist):len(s.Hist)], g), At: place{bucket: i}})
		}
	}
}

func (rc *RayCast) kdInsert(fs *fieldState, s *set) {
	s.At = place{id: fs.nextID, bucket: -1}
	fs.nextID++
	fs.kdSets[s.At.id] = s
	fs.kd.Insert(s.At.id, s.G.Pts.Bounds())
	rc.k.Touch(s, 1)
}

// query traverses the BVH for the pieces overlapping sp.
func (fs *fieldState) query(sp index.Space) (m bucketList) {
	m.visited = int64(fs.pieces.QuerySpace(sp, func(i int) {
		m.tests++
		if fs.dcp.Subregions[i].Space.Overlaps(sp) {
			m.buckets = append(m.buckets, i)
		}
	}))
	return m
}

// overlappingBuckets returns the indices of dcp pieces whose contents
// overlap r. The BVH is traversed on a region's first use; every use is
// charged that traversal, so the cost model sees the same query.
func (rc *RayCast) overlappingBuckets(fs *fieldState, r *region.Region) []int {
	m, ok := fs.memo[r.ID]
	if !ok {
		m = fs.query(r.Space)
		fs.memo[r.ID] = m
	}
	rc.k.Stats.OverlapTests += m.tests
	rc.k.Stats.BVHVisited += m.visited
	rc.k.Opts.Probe.Visit(m.visited)
	return m.buckets
}

// candidates appends the parts of the live sets overlapping r to out.
func (rc *RayCast) candidates(fs *fieldState, r *region.Region, out []part) []part {
	if fs.dcp != nil {
		for _, bi := range rc.overlappingBuckets(fs, r) {
			for _, s := range fs.buckets[bi] {
				rc.k.Stats.SetsVisited++
				rc.k.Stats.OverlapTests++
				if c := s.G.Cut(r); c.In != nil {
					out = append(out, part{S: s, Cut: c})
				}
			}
			rc.k.Opts.Probe.Touch(rc.k.Owner(fs.geom[bi]), int64(len(fs.buckets[bi])))
		}
		return out
	}
	visited := fs.kd.QuerySpace(r.Space, func(id int) {
		s := fs.kdSets[id]
		rc.k.Stats.SetsVisited++
		rc.k.Stats.OverlapTests++
		if c := s.G.Cut(r); c.In != nil {
			out = append(out, part{S: s, Cut: c})
		}
		rc.k.Touch(s, 1)
	})
	rc.k.Stats.BVHVisited += int64(visited)
	rc.k.Opts.Probe.Visit(int64(visited))
	return out
}

// remove deletes s from the acceleration structure.
func (rc *RayCast) remove(fs *fieldState, s *set) {
	if fs.dcp != nil {
		b := fs.buckets[s.At.bucket]
		for i, x := range b {
			if x == s {
				b[i] = b[len(b)-1]
				fs.buckets[s.At.bucket] = b[:len(b)-1]
				return
			}
		}
		panic(fmt.Sprintf("raycast: set %d (%v) is not in its bucket %d", s.At.id, s.G.Pts, s.At.bucket))
	}
	fs.kd.Remove(s.At.id)
	delete(fs.kdSets, s.At.id)
}

// insert adds a set whose bucket is already known (refined fragments stay
// in their parent's piece) or registers it in the K-d container.
func (rc *RayCast) insert(fs *fieldState, s *set) {
	if fs.dcp != nil {
		s.At.id = fs.nextID
		fs.nextID++
		fs.buckets[s.At.bucket] = append(fs.buckets[s.At.bucket], s)
		rc.k.Touch(s, 1)
		return
	}
	rc.kdInsert(fs, s)
}

// Refine implements eqset.Store: fragments replace a split set in its
// bucket (or in the K-d container). A read occludes nothing, so it cuts
// nothing either: the sets it overlaps are returned whole, each with the
// read's cut of it, and the kernel records the read's footprint in those
// it covers only in part. Writes and reductions still split, so every
// mutating entry covers its whole set. The migration heuristic and the
// eq.migrate fault watch each requirement once, on its materialize-phase
// visit.
func (rc *RayCast) Refine(t *core.Task, ri int, commit bool, inside []part) []part {
	r := t.Reqs[ri].Region
	fs := rc.fieldFor(t.Reqs[ri].Field, r)
	if !commit {
		rc.maybeMigrate(fs, r)
		if fired, v := rc.k.Opts.Faults.FireValue(fault.EqMigrate, int64(t.ID)); fired {
			rc.forceMigrate(fs, v)
		}
	}
	if t.Reqs[ri].Priv.IsRead() {
		return rc.candidates(fs, r, inside)
	}
	rc.cands = rc.candidates(fs, r, rc.cands[:0])
	for _, p := range rc.cands {
		in, rest, forced := rc.k.Split(p.S, p.Cut)
		inside = append(inside, eqset.Whole(in))
		if rest == nil {
			continue
		}
		rc.remove(fs, p.S)
		rc.insert(fs, in)
		rc.insert(fs, rest)
		if forced {
			inside = append(inside, eqset.Whole(rest))
		}
	}
	return inside
}

// maybeMigrate tracks which disjoint-complete partition recent launches
// use and re-buckets when the application has durably switched (§7.1).
func (rc *RayCast) maybeMigrate(fs *fieldState, r *region.Region) {
	if fs.dcp == nil {
		return
	}
	p := rc.rootPartitionOf(r)
	if p == nil || !p.DisjointComplete() {
		return
	}
	if p == fs.dcp {
		fs.misses = 0
		fs.candidate = nil
		return
	}
	if fs.candidate != p {
		fs.candidate = p
		fs.misses = 0
	}
	fs.misses++
	if fs.misses >= migrateAfter {
		rc.installAccel(fs, p, fs.live())
	}
}

// forceMigrate is the EqMigrate fault action: rebuild the acceleration
// structure mid-stream without waiting for the migration heuristic — odd
// payloads abandon the current partition for the K-d fallback, even ones
// re-bucket against the same partition — exercising the §7.1 migration
// path under an adversarial schedule.
func (rc *RayCast) forceMigrate(fs *fieldState, payload uint64) {
	dcp := fs.dcp
	if payload&1 == 1 {
		dcp = nil
	}
	rc.installAccel(fs, dcp, fs.live())
}

// Write implements eqset.Store as the dominating write of Figure 11: the
// write's region becomes a fresh equivalence set (split at piece boundaries
// in DCP mode) and every set it occludes — inside — is pruned. The fresh
// sets wear the geometry the region cuts out of fs.geom, so the next
// refinement of one finds the cuts its predecessor left there.
func (rc *RayCast) Write(t *core.Task, ri int, inside []part) {
	req := t.Reqs[ri]
	fs := rc.state[req.Field]
	e := core.Entry{Task: t.ID, Req: int32(ri), Priv: req.Priv}
	rc.k.Stats.SetsCoalesced += int64(len(inside))
	rc.written = rc.written[:0]
	var old []core.Entry // a pruned set's history to reuse (see eqset.Set.Hist)
	for _, p := range inside {
		s := p.S
		s.Dead = true
		if fs.dcp != nil {
			rc.written = append(rc.written, s.At.bucket)
			continue
		}
		rc.remove(fs, s)
		if cap(s.Hist) > len(s.Hist) {
			old = s.Hist
		}
	}
	if fs.dcp == nil {
		rc.kdInsert(fs, rc.k.NewSet(fs.geom[0].Cut(req.Region).In, rc.k.Overwrite(old, e), place{}))
		rc.k.Stats.SetsCreated++
		return
	}
	// One coalesced set per piece the write covers. The pruned sets of a
	// bucket are all of its sets inside the region, and tile piece ∩ region:
	// one pass drops them, keeping the survivors' order, and that point set
	// is their union. Bucket order fixes the new sets' ids, which downstream
	// scans report in: ascending, so two runs of the same stream emit
	// identical output.
	sort.Ints(rc.written)
	for i, bi := range rc.written {
		if i > 0 && bi == rc.written[i-1] {
			continue
		}
		old = nil
		live := slices.DeleteFunc(fs.buckets[bi], func(s *set) bool {
			if s.Dead && cap(s.Hist) > len(s.Hist) {
				old = s.Hist
			}
			return s.Dead
		})
		ns := rc.k.NewSet(fs.geom[bi].Cut(req.Region).In, rc.k.Overwrite(old, e), place{id: fs.nextID, bucket: bi})
		fs.nextID++
		fs.buckets[bi] = append(live, ns)
		rc.k.Stats.SetsCreated++
		// Invalidate-and-replace is one batched update per owner.
		rc.k.Touch(ns, 2)
	}
}

// sortedIntKeys returns m's keys in ascending order, making iteration over
// the map's contents deterministic.
func sortedIntKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
