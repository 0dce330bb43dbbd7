package paint

import (
	"sort"

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
	//
	// confined to analyzer
	state map[field.ID]*fieldState
	// confined to analyzer
	stats core.Stats
	// nextToken issues unique composite-view ids for replication tracking.
	//
	// confined to analyzer
	nextToken int64

	// DisablePruning turns off occlusion pruning (deleting history items
	// fully covered by later writes, §5.1) — an ablation knob for
	// benchmarking; histories then grow for the life of the program.
	DisablePruning bool
}

// NewPainter creates an optimized painter for tree.
func NewPainter(tree *region.Tree, opts core.Options) *Painter {
	return &Painter{tree: tree, opts: opts.Normalize(), state: make(map[field.ID]*fieldState)}
}

// Name implements core.Analyzer.
func (pa *Painter) Name() string { return "paint" }

// Stats implements core.Analyzer.
//
// confined to analyzer
func (pa *Painter) Stats() *core.Stats { return &pa.stats }

// nodeKey identifies a region or partition node of the tree.
type nodeKey struct {
	part bool
	id   int
}

func regionKey(r *region.Region) nodeKey  { return nodeKey{part: false, id: r.ID} }
func partKey(p *region.Partition) nodeKey { return nodeKey{part: true, id: p.ID} }

// item is one element of a node history: a recorded entry or a composite
// view.
type item struct {
	entry core.Entry // valid when view == nil
	view  *view
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
}

type fieldState struct {
	nodes map[nodeKey]*nodeState
}

func (pa *Painter) fieldFor(f field.ID) *fieldState {
	fs, ok := pa.state[f]
	if !ok {
		fs = &fieldState{nodes: make(map[nodeKey]*nodeState)}
		// Seed the root with the initial full write (§5).
		root := pa.node(fs, regionKey(pa.tree.Root), pa.tree.Root.Space)
		root.hist = append(root.hist, item{entry: core.SeedEntry(pa.tree.Root.Space)})
		root.open = true
		root.summary.Add(privilege.Writes())
		pa.state[f] = fs
	}
	return fs
}

// node returns the state at the tree node k, whose space is space.
func (pa *Painter) node(fs *fieldState, k nodeKey, space index.Space) *nodeState {
	ns, ok := fs.nodes[k]
	if !ok {
		ns = &nodeState{summary: privilege.NewSummary(), owner: pa.opts.Owner(space)}
		fs.nodes[k] = ns
	}
	return ns
}

// pathOf returns the alternating region/partition node keys from the root
// down to r, together with each node's space.
func (pa *Painter) pathOf(r *region.Region) []pathStep {
	span := pa.opts.Spans.Begin("paint.traverse", "analysis")
	defer span.End()
	regions := r.Path()
	steps := make([]pathStep, 0, 2*len(regions))
	for i, reg := range regions {
		if i > 0 {
			p := reg.Parent
			steps = append(steps, pathStep{key: partKey(p), space: p.Space(), part: p})
		}
		steps = append(steps, pathStep{key: regionKey(reg), space: reg.Space, region: reg})
	}
	return steps
}

type pathStep struct {
	key    nodeKey
	space  index.Space
	region *region.Region    // set for region steps
	part   *region.Partition // set for partition steps
}

// Analyze implements core.Analyzer.
//
// confined to analyzer
func (pa *Painter) Analyze(t *core.Task) *core.Result {
	span := pa.opts.Spans.Begin("paint.analyze", "analysis")
	defer span.End()
	sc := core.NewScan(&pa.stats, t)

	for ri, req := range t.Reqs {
		if req.Region.Space.IsEmpty() {
			// No points: nothing can interfere, nothing materializes, and
			// hoisting for an empty requirement moves nothing. Common under
			// sharding, where a requirement's restriction to most atoms is
			// empty, and for clipped boundary halos.
			continue
		}
		fs := pa.fieldFor(req.Field)
		path := pa.pathOf(req.Region)

		// Step 1 (§5.1): hoist interfering open off-path subtrees into
		// composite views at their common ancestor with R.
		hoist := pa.opts.Spans.Begin("paint.hoist", "analysis")
		for _, step := range path {
			pa.hoistChildren(fs, step, req)
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
		plan := sc.Plan()
		sort.SliceStable(plan, func(i, j int) bool {
			if plan[i].Task != plan[j].Task {
				return plan[i].Task < plan[j].Task
			}
			return plan[i].Req < plan[j].Req
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
		}})
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
// subtree of the path node `step` (excluding the child that continues the
// path) into a composite view appended to step's history.
func (pa *Painter) hoistChildren(fs *fieldState, step pathStep, req core.Req) {
	appendView := func(childKey nodeKey, childSpace index.Space) {
		cs := pa.node(fs, childKey, childSpace)
		if !cs.open {
			return
		}
		if !cs.summary.Interferes(req.Priv) {
			return
		}
		pa.stats.OverlapTests++
		if !childSpace.Overlaps(req.Region.Space) {
			return
		}
		ns := pa.node(fs, step.key, step.space)
		pa.nextToken++
		v := &view{
			pts:        index.Empty(childSpace.Dim()),
			writeCover: index.Empty(childSpace.Dim()),
			summary:    privilege.NewSummary(),
			id:         pa.nextToken,
			home:       ns.owner,
		}
		pa.snapshot(fs, childKey, v)
		if len(v.items) == 0 {
			return
		}
		pa.stats.ViewsCreated++
		// Occlusion pruning: the new view hides older items it fully
		// overwrites.
		ns.hist = pa.prune(ns.hist, v.writeCover)
		ns.hist = append(ns.hist, item{view: v})
		ns.open = true
		ns.summary.AddAll(v.summary)
		pa.opts.Probe.Touch(ns.owner, int64(v.count))
	}

	if step.region != nil {
		for _, p := range step.region.Partitions {
			onPath := req.Region != step.region && containsRegion(p, req.Region)
			if onPath {
				continue
			}
			appendView(partKey(p), p.Space())
		}
	} else {
		for _, sub := range step.part.Subregions {
			if sub == req.Region || sub.IsAncestorOf(req.Region) {
				continue
			}
			appendView(regionKey(sub), sub.Space)
		}
	}
}

// containsRegion reports whether r lies in partition p's subtree.
func containsRegion(p *region.Partition, r *region.Region) bool {
	for cur := r; cur != nil; {
		if cur.Parent == p {
			return true
		}
		if cur.Parent == nil {
			return false
		}
		cur = cur.Parent.Parent
	}
	return false
}

// snapshot moves the histories of the subtree rooted at key into v
// (preorder), closing the subtree. Nodes never touched by a commit have no
// state and no descendants with state, so they terminate the recursion.
func (pa *Painter) snapshot(fs *fieldState, key nodeKey, v *view) {
	ns, ok := fs.nodes[key]
	if !ok || !ns.open {
		return
	}
	if len(ns.hist) > 0 {
		for _, it := range ns.hist {
			v.items = append(v.items, it)
			if it.view != nil {
				v.pts = v.pts.Union(it.view.pts)
				v.writeCover = v.writeCover.Union(it.view.writeCover)
				v.summary.AddAll(it.view.summary)
				v.count += it.view.count
				pa.stats.ViewEntries += int64(it.view.count)
			} else {
				v.pts = v.pts.Union(it.entry.Pts)
				if it.entry.Priv.IsWrite() {
					v.writeCover = v.writeCover.Union(it.entry.Pts)
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
		if inter := e.Pts.Intersect(req.Region.Space); !inter.IsEmpty() {
			sc.Entry(e, inter)
		}
	}
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
