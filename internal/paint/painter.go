package paint

import (
	"cmp"
	"slices"

	"visibility/internal/core"
	"visibility/internal/field"
	"visibility/internal/index"
	"visibility/internal/privilege"
	"visibility/internal/region"
)

// Painter is the optimized painter's algorithm (§5.1). Histories are stored
// at region-tree nodes (both region and partition nodes carry histories)
// such that the history relevant to a region R is the concatenation of the
// histories along the path from the root to R. When a task launches on R,
// any open subtree hanging off R's path whose recorded privileges interfere
// is snapshotted into a composite view appended to the common ancestor's
// history, preserving the relative order of interfering operations.
type Painter struct {
	tree *region.Tree
	opts core.Options
	// state holds the per-field paint histories, mutated by every Analyze
	// with no lock: the analyzer runs on exactly one goroutine (the
	// submit side, §3.2).
	state map[field.ID]*fieldState
	stats core.Stats
	// nextToken issues unique composite-view ids for replication tracking.
	nextToken int64

	// Geometry remembered across launches (DESIGN §4). Region-tree nodes
	// and their spaces are immutable, so each answer is computed once, and
	// the counters and probe calls of a launch are charged the same whether
	// an answer is remembered or not.
	paths  [][]pathStep           // root path of each region, by region ID
	inters map[uint64]index.Space // region ∩ region, by the two IDs, lower first
	// ops and covers collect a snapshot's union operands; unionMisses
	// counts the unions computed rather than reused.
	ops, covers []index.Space
	unionMisses int64

	// DisablePruning turns off occlusion pruning (deleting history items
	// fully covered by later writes, §5.1) — an ablation knob for
	// benchmarking; histories then grow for the life of the program.
	DisablePruning bool
}

// NewPainter creates an optimized painter for tree.
func NewPainter(tree *region.Tree, opts core.Options) *Painter {
	return &Painter{
		tree:   tree,
		opts:   opts.Normalize(),
		state:  make(map[field.ID]*fieldState),
		inters: make(map[uint64]index.Space),
	}
}

// Name implements core.Analyzer.
func (pa *Painter) Name() string { return "paint" }

// Stats implements core.Analyzer.
func (pa *Painter) Stats() *core.Stats { return &pa.stats }

// nodeKey identifies a region or partition node of the tree.
type nodeKey struct {
	part bool
	id   int
}

func regionKey(r *region.Region) nodeKey  { return nodeKey{part: false, id: r.ID} }
func partKey(p *region.Partition) nodeKey { return nodeKey{part: true, id: p.ID} }

// item is one element of a node history: a recorded entry or a composite
// view. An entry covers one whole region: a commit records its
// requirement's region, and the seed the root.
type item struct {
	entry  core.Entry // valid when view == nil
	region int        // ID of the region whose space entry.Pts is
	view   *view
}

// view is a composite view: an immutable snapshot of a subtree's histories
// in path-preorder order (§5.1). Nested views remain nested and are
// traversed in place.
type view struct {
	items      []item
	pts        index.Space // union of all recorded points
	writeCover index.Space // union of write-covered points (for occlusion)
	summary    *privilege.Summary
	count      int   // total entries including nested views
	id         int64 // replication token (views replicate on demand, §5.1)
	home       int   // owner of the node the view was appended to
}

// nodeState is the per-field analysis state at one tree node.
type nodeState struct {
	hist    []item
	open    bool // some history exists in this node's subtree
	summary *privilege.Summary
	owner   int // node owning this state (§8): fixed, as the tree node's space is
	// pts and cover remember the unions of the last view snapshotted from
	// this node's subtree.
	pts, cover unionMemo
}

// fieldState holds one field's node states by region and by partition ID.
// Both tables grow as launches reach nodes, so partitions created after
// the painter are covered.
type fieldState struct {
	regions, parts []*nodeState
}

// table returns the table node k's state is kept in.
func (fs *fieldState) table(k nodeKey) *[]*nodeState {
	if k.part {
		return &fs.parts
	}
	return &fs.regions
}

// at returns the state of node k, nil if it has none yet.
func (fs *fieldState) at(k nodeKey) *nodeState {
	if t := *fs.table(k); k.id < len(t) {
		return t[k.id]
	}
	return nil
}

func (pa *Painter) fieldFor(f field.ID) *fieldState {
	fs, ok := pa.state[f]
	if !ok {
		fs = &fieldState{}
		// Seed the root with the initial full write (§5).
		root := pa.node(fs, regionKey(pa.tree.Root), pa.tree.Root.Space)
		root.hist = append(root.hist, item{entry: core.SeedEntry(pa.tree.Root.Space), region: pa.tree.Root.ID})
		root.open = true
		root.summary.Add(privilege.Writes())
		pa.state[f] = fs
	}
	return fs
}

// node returns the state at the tree node k, whose space is space.
func (pa *Painter) node(fs *fieldState, k nodeKey, space index.Space) *nodeState {
	if ns := fs.at(k); ns != nil {
		return ns
	}
	ns := &nodeState{summary: privilege.NewSummary(), owner: pa.opts.Owner(space)}
	t := fs.table(k)
	*t = grow(*t, k.id)
	(*t)[k.id] = ns
	return ns
}

// grow extends s, if need be, so that s[i] exists.
func grow[T any](s []T, i int) []T {
	if i < len(s) {
		return s
	}
	return append(s, make([]T, i+1-len(s))...)
}

// pathOf returns the alternating region/partition nodes from the root down
// to r, together with each node's space, computed on r's first launch.
func (pa *Painter) pathOf(r *region.Region) []pathStep {
	if r.ID < len(pa.paths) && pa.paths[r.ID] != nil {
		return pa.paths[r.ID]
	}
	span := pa.opts.Spans.Begin("paint.traverse", "analysis")
	defer span.End()
	regions := r.Path()
	steps := make([]pathStep, 0, 2*len(regions)-1)
	for i, reg := range regions {
		if i > 0 {
			p := reg.Parent
			steps = append(steps, pathStep{key: partKey(p), space: p.Space(), part: p})
		}
		steps = append(steps, pathStep{key: regionKey(reg), space: reg.Space, region: reg})
	}
	pa.paths = grow(pa.paths, r.ID)
	pa.paths[r.ID] = steps
	return steps
}

type pathStep struct {
	key    nodeKey
	space  index.Space
	region *region.Region    // set for region steps
	part   *region.Partition // set for partition steps
}

// Analyze implements core.Analyzer.
func (pa *Painter) Analyze(t *core.Task) *core.Result {
	span := pa.opts.Spans.Begin("paint.analyze", "analysis")
	defer span.End()
	sc := core.NewScan(&pa.stats, t)

	for ri, req := range t.Reqs {
		if req.Region.Space.IsEmpty() {
			// No points: nothing can interfere, nothing materializes, and
			// hoisting for an empty requirement moves nothing. Empty pieces
			// of explicit or dependent partitions and clipped boundary
			// halos produce these.
			continue
		}
		fs := pa.fieldFor(req.Field)
		path := pa.pathOf(req.Region)

		// Step 1 (§5.1): hoist interfering open off-path subtrees into
		// composite views at their common ancestor with R.
		hoist := pa.opts.Spans.Begin("paint.hoist", "analysis")
		for i := range path {
			pa.hoistChildren(fs, path, i, req)
		}
		hoist.End()

		// Step 2: materialize by traversing the path history in order.
		// Interference testing against every (possibly nested) entry is
		// the painter's per-launch cost, which grows with the machine as
		// composite views accumulate children (§8.2); it is charged where
		// the history lives.
		scan := pa.opts.Spans.Begin("paint.scan", "analysis")
		sc.Begin(ri, req)
		for _, step := range path {
			ns := pa.node(fs, step.key, step.space)
			if len(ns.hist) == 0 {
				continue
			}
			before := pa.stats.EntriesScanned
			pa.scanItems(ns.hist, req, &sc)
			pa.opts.Probe.Touch(core.LocalOwner, pa.stats.EntriesScanned-before+1)
		}
		scan.End()
		// Path order concatenates per-node histories, so entries from
		// hoisted views can interleave out of program order. That is legal
		// for non-interfering operations in exact arithmetic, but two
		// same-op reductions over the same points applied in a different
		// order than the sequential interpreter differ in the last ulp for
		// float sum/product. Restoring global program order (stable on
		// task, then requirement) keeps interfering pairs where the history
		// already put them and makes materialization byte-exact.
		slices.SortStableFunc(sc.Plan(), func(a, b core.Visible) int {
			return cmp.Or(cmp.Compare(a.Task, b.Task), cmp.Compare(a.Req, b.Req))
		})
	}

	// commit: record this task's operations at its regions and prune
	// occluded items.
	for ri, req := range t.Reqs {
		if req.Region.Space.IsEmpty() {
			continue
		}
		fs := pa.fieldFor(req.Field)
		path := pa.pathOf(req.Region)
		leaf := pa.node(fs, regionKey(req.Region), req.Region.Space)
		if req.Priv.IsWrite() && !pa.DisablePruning {
			// A full write of this region occludes everything recorded
			// here: all prior items at this node have points within the
			// region's space.
			pa.stats.ItemsPruned += int64(len(leaf.hist))
			leaf.hist = leaf.hist[:0]
		}
		leaf.hist = append(leaf.hist, item{entry: core.Entry{
			Task: t.ID, Req: ri, Priv: req.Priv, Pts: req.Region.Space,
		}, region: req.Region.ID})
		pa.opts.Probe.Touch(leaf.owner, 1)
		for _, step := range path {
			ns := pa.node(fs, step.key, step.space)
			ns.open = true
			ns.summary.Add(req.Priv)
		}
	}

	return sc.Result()
}

// hoistChildren snapshots every open, overlapping, interfering child
// subtree of the path node path[i] (excluding the child that continues the
// path) into a composite view appended to path[i]'s history.
func (pa *Painter) hoistChildren(fs *fieldState, path []pathStep, i int, req core.Req) {
	step := path[i]
	var next pathStep // the child on the path; zero below its last node
	if i+1 < len(path) {
		next = path[i+1]
	}
	if step.region != nil {
		for _, p := range step.region.Partitions {
			if p != next.part {
				pa.hoistChild(fs, step, partKey(p), p.Space(), req)
			}
		}
		return
	}
	for _, sub := range step.part.Subregions {
		if sub != next.region {
			pa.hoistChild(fs, step, regionKey(sub), sub.Space, req)
		}
	}
}

// hoistChild snapshots the child subtree of step rooted at child, whose
// space is childSpace, into a view appended to step's history, if it is
// open, interferes with req and overlaps it.
func (pa *Painter) hoistChild(fs *fieldState, step pathStep, child nodeKey, childSpace index.Space, req core.Req) {
	cs := pa.node(fs, child, childSpace)
	if !cs.open || !cs.summary.Interferes(req.Priv) {
		return
	}
	pa.stats.OverlapTests++
	if !childSpace.Overlaps(req.Region.Space) {
		return
	}
	ns := pa.node(fs, step.key, step.space)
	pa.nextToken++
	v := &view{summary: privilege.NewSummary(), id: pa.nextToken, home: ns.owner}
	pa.ops, pa.covers = pa.ops[:0], pa.covers[:0]
	pa.snapshot(fs, child, v)
	if len(v.items) == 0 {
		return
	}
	v.pts = pa.union(&cs.pts, childSpace.Dim(), pa.ops)
	v.writeCover = pa.union(&cs.cover, childSpace.Dim(), pa.covers)
	pa.stats.ViewsCreated++
	// Occlusion pruning: the new view hides older items it fully
	// overwrites.
	ns.hist = pa.prune(ns.hist, v.writeCover)
	ns.hist = append(ns.hist, item{view: v})
	ns.open = true
	ns.summary.AddAll(v.summary)
	pa.opts.Probe.Touch(ns.owner, int64(v.count))
}

// snapshot moves the histories of the subtree rooted at key into v
// (preorder), closing the subtree, and collects the operands of v's point
// set in pa.ops and of its write cover in pa.covers. Nodes never touched by
// a commit have no state and no descendants with state, so they terminate
// the recursion.
func (pa *Painter) snapshot(fs *fieldState, key nodeKey, v *view) {
	ns := fs.at(key)
	if ns == nil || !ns.open {
		return
	}
	if len(ns.hist) > 0 {
		for _, it := range ns.hist {
			v.items = append(v.items, it)
			if it.view != nil {
				pa.ops = append(pa.ops, it.view.pts)
				if !it.view.writeCover.IsEmpty() {
					pa.covers = append(pa.covers, it.view.writeCover)
				}
				v.summary.AddAll(it.view.summary)
				v.count += it.view.count
				pa.stats.ViewEntries += int64(it.view.count)
			} else {
				pa.ops = append(pa.ops, it.entry.Pts)
				if it.entry.Priv.IsWrite() {
					pa.covers = append(pa.covers, it.entry.Pts)
				}
				v.summary.Add(it.entry.Priv)
				v.count++
				pa.stats.ViewEntries++
			}
		}
		pa.opts.Probe.Touch(ns.owner, int64(len(ns.hist)))
		ns.hist = nil
	}
	ns.open = false
	ns.summary.Reset()

	// Recurse into children.
	if !key.part {
		r := pa.tree.Region(key.id)
		for _, p := range r.Partitions {
			pa.snapshot(fs, partKey(p), v)
		}
	} else {
		p := pa.tree.PartitionAt(key.id) // partition IDs are creation indices
		for _, sub := range p.Subregions {
			pa.snapshot(fs, regionKey(sub), v)
		}
	}
}

// unionMemo is the last union computed at a node, with its operands.
type unionMemo struct {
	ops []index.Space
	out index.Space
}

// union returns the union of ops, all of dimension dim. Spaces are
// immutable, so when ops are, one for one, the spaces m's union was taken
// of — the same rectangles — that union is returned again.
func (pa *Painter) union(m *unionMemo, dim int, ops []index.Space) index.Space {
	if !slices.EqualFunc(m.ops, ops, sameRects) {
		m.ops = append(m.ops[:0], ops...)
		m.out = index.UnionAll(dim, ops)
		pa.unionMisses++
	}
	return m.out
}

// sameRects reports whether a and b hold the same rectangle slice.
func sameRects(a, b index.Space) bool {
	ra, rb := a.Rects(), b.Rects()
	return len(ra) == len(rb) && (len(ra) == 0 || &ra[0] == &rb[0])
}

// scanItems traverses history items in order, expanding composite views,
// and hands sc every entry that shares points with req.
func (pa *Painter) scanItems(items []item, req core.Req, sc *core.Scan) {
	for _, it := range items {
		if it.view != nil {
			pa.stats.OverlapTests++
			// Composite views are immutable and replicate on demand: the
			// first traversal by each analyzing node fetches the whole
			// view from its home; later traversals are cached locally.
			pa.opts.Probe.Fetch(it.view.home, it.view.id, int64(it.view.count))
			if !it.view.pts.Overlaps(req.Region.Space) {
				continue
			}
			pa.scanItems(it.view.items, req, sc)
			continue
		}
		e := it.entry
		pa.stats.EntriesScanned++
		pa.stats.OverlapTests++
		// A read scanned by a read, or a reduction by one with the same
		// operator, is neither a dependence nor a plan entry
		// (core.Scan.Entry), so it needs no intersection.
		if !privilege.Interferes(e.Priv, req.Priv) {
			continue
		}
		if inter := pa.intersect(it.region, req.Region); !inter.IsEmpty() {
			sc.Entry(e, inter)
		}
	}
}

// intersect returns the intersection of the spaces of regions a and b.
func (pa *Painter) intersect(a int, b *region.Region) index.Space {
	k := uint64(min(a, b.ID))<<32 | uint64(max(a, b.ID))
	inter, ok := pa.inters[k]
	if !ok {
		inter = pa.tree.Region(a).Space.Intersect(b.Space)
		pa.inters[k] = inter
	}
	return inter
}

// prune removes items whose recorded points are entirely covered by cover
// (they can no longer be visible).
func (pa *Painter) prune(items []item, cover index.Space) []item {
	if cover.IsEmpty() || pa.DisablePruning {
		return items
	}
	span := pa.opts.Spans.Begin("paint.prune", "analysis")
	defer span.End()
	out := items[:0]
	for _, it := range items {
		var pts index.Space
		if it.view != nil {
			pts = it.view.pts
		} else {
			pts = it.entry.Pts
		}
		pa.stats.OverlapTests++
		if cover.Covers(pts) {
			pa.stats.ItemsPruned++
			continue
		}
		out = append(out, it)
	}
	return out
}
