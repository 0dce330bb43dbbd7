// Package shard parallelizes one session's dependence analysis across N
// shard goroutines — a single-session slice of Dynamic Control
// Replication (paper §8) — without giving up the byte-level determinism
// the sequential analyzers guarantee.
//
// The root index space is cut into N "atoms": contiguous coordinate
// bands along the highest axis (row-major order), intersected with the
// root space. Each atom carries a shadow region tree — the real tree
// with every region's space restricted to the atom — and its own
// instance of the inner analyzer, built by the same constructor the
// algorithm registry exposes. Atoms are assigned to shard goroutines by
// a stable FNV-1a hash of the atom's index-space key, so ownership is a
// pure function of the workload, not of scheduling.
//
// Each launch fans out: the submit goroutine restricts the task's
// requirements to every atom, dispatches the atoms with work to their
// owning shards, waits for all of them (a barrier), and merges. The
// merge is what makes the parallelism invisible:
//
//   - Dependences: each atom reports the tasks with a live interfering
//     history entry at some point of the atom. Liveness and interference
//     are per-point properties, so the union over a partition of the
//     space equals the sequential analyzer's answer exactly; DedupDeps
//     of the concatenation is byte-identical.
//
//   - Plans: per-atom plans are concatenated in atom order, never
//     coalesced. Entries from different atoms touch disjoint points, so
//     every point sees its visible updates in exactly the sequential
//     order. (Coalescing by producer would be unsound: a reduce entry
//     could migrate ahead of a later write that covers its points.)
//
// The layer carries no instrumentation that is order-sensitive or unsafe
// for concurrent use: New refuses a Probe, Recorder or fault injector,
// and the atoms get only the metrics registry, the span buffer and the
// owner function.
//
// The shard layer is itself an analyzer, so it composes under the trace
// and autotrace wrappers (which then memoize the merged results) and
// sits above nothing: the inner analyzers never know they are sharded.
package shard

import (
	"fmt"
	"runtime"
	"sync"

	"visibility/internal/core"
	"visibility/internal/index"
	"visibility/internal/obs"
	"visibility/internal/region"
)

// Factory constructs the inner analyzer an atom runs over its shadow
// tree — the same shape as the algorithm registry's constructors.
type Factory = core.NewAnalyzerFunc

// atom is one disjoint slice of the analysis: a band of the root space,
// the shadow tree restricted to it, and the inner analyzer that slice owns.
type atom struct {
	space index.Space // the atom's slice of the root space
	home  int         // owning shard

	tree     *region.Tree
	mirrored int // partitions of the real tree mirrored so far

	an core.Analyzer
}

// job is one launch's work for one shard goroutine. tasks and results
// are shared across the launch's jobs but indexed by atom, and each slot
// is written by exactly one goroutine; the barrier publishes them back
// to the submit goroutine.
type job struct {
	atoms   []int
	tasks   []*core.Task
	results []*core.Result
	done    *sync.WaitGroup
}

// Analyzer is the sharded analysis layer. It implements core.Analyzer:
// Analyze fans one launch out across the shard goroutines and merges
// their results into exactly the stream the inner analyzer would have
// produced alone. Like every analyzer it is driven by one goroutine at
// a time; the parallelism inside each Analyze is invisible to callers.
type Analyzer struct {
	tree   *region.Tree
	opts   core.Options
	shards int
	serial bool // run every atom inline on the submit goroutine (see SetSerial)
	name   string
	atoms  []*atom

	inboxes []chan job
	workers sync.WaitGroup
	closed  bool

	launches int64
	stats    core.Stats // aggregate of the atom analyzers; rebuilt after each launch

	// Per-launch scratch, reused across launches: Analyze is
	// single-goroutine and the barrier ends every worker's use of these
	// before the next launch can start.
	scratchTasks   []*core.Task
	scratchResults []*core.Result
	scratchShards  [][]int

	cDispatch  *obs.Counter
	cAtomRuns  *obs.Counter
	cAtomSkips *obs.Counter
}

// fnv1a hashes s with 64-bit FNV-1a.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// New builds a sharded analyzer over tree: shards parallel goroutines,
// each running its own inner analyzer (built by inner) over a disjoint
// slice of the space. shards < 1 is treated as 1. opts may carry only
// Metrics, Spans and Owner; New panics on anything else. The returned
// analyzer owns goroutines; Close it when done (Analyze after Close
// panics).
func New(tree *region.Tree, opts core.Options, shards int, inner Factory) *Analyzer {
	if opts.Probe != nil || opts.Recorder != nil || opts.Faults != nil {
		panic("shard: the shard layer takes only Metrics, Spans and Owner")
	}
	if shards < 1 {
		shards = 1
	}
	opts = opts.Normalize()
	a := &Analyzer{
		tree:       tree,
		opts:       opts,
		shards:     shards,
		cDispatch:  opts.Metrics.NewCounter("shard/dispatches"),
		cAtomRuns:  opts.Metrics.NewCounter("shard/atom_runs"),
		cAtomSkips: opts.Metrics.NewCounter("shard/atom_skips"),
	}
	for _, space := range bands(tree.Root.Space, shards) {
		at := &atom{
			space: space,
			home:  int(fnv1a(space.Key()) % uint64(shards)),
			tree:  region.NewTree(tree.Root.Name, space, tree.Fields),
		}
		at.an = inner(at.tree, core.Options{Metrics: opts.Metrics, Spans: opts.Spans, Owner: opts.Owner})
		a.atoms = append(a.atoms, at)
	}
	a.name = a.atoms[0].an.Name() + fmt.Sprintf("+shard%d", shards)
	// On a single-P scheduler, dispatching to workers buys no
	// parallelism — every goroutine multiplexes onto one thread — so the
	// atoms run inline and the win is pure work splitting: each atom's
	// analyzer sees only its band's history and space.
	a.serial = runtime.GOMAXPROCS(0) == 1
	if shards > 1 {
		a.inboxes = make([]chan job, shards)
		for k := range a.inboxes {
			a.inboxes[k] = make(chan job, 1)
			a.workers.Add(1)
			go a.worker(k)
		}
	}
	return a
}

// SetSerial forces (true) or forbids (false) the inline-serial execution
// mode New picks automatically on single-P schedulers. Which goroutine
// runs an atom is invisible in every result, so this is a
// scheduling knob only — tests use it to pin both paths regardless of
// the host. Call it between launches, like every other method here.
func (a *Analyzer) SetSerial(on bool) { a.serial = on }

// bands cuts space into at most n non-empty contiguous coordinate bands
// along the highest axis (so band order matches row-major point order).
// Degenerate spaces yield fewer bands — possibly one.
func bands(space index.Space, n int) []index.Space {
	out := make([]index.Space, 0, n)
	if space.IsEmpty() || n <= 1 {
		return append(out, space)
	}
	b := space.Bounds()
	ax := b.Dim - 1
	lo, hi := b.Lo.C[ax], b.Hi.C[ax]
	extent := hi - lo + 1
	for i := 0; i < n; i++ {
		blo := lo + extent*int64(i)/int64(n)
		bhi := lo + extent*int64(i+1)/int64(n) - 1
		if bhi < blo {
			continue
		}
		band := b
		band.Lo.C[ax], band.Hi.C[ax] = blo, bhi
		piece := space.Intersect(index.FromRect(band))
		if !piece.IsEmpty() {
			out = append(out, piece)
		}
	}
	return out
}

// Name implements core.Analyzer.
func (a *Analyzer) Name() string { return a.name }

// Stats implements core.Analyzer: the aggregate of the atom analyzers'
// counters, with Launches counting fanned-out launches once.
func (a *Analyzer) Stats() *core.Stats { return &a.stats }

// Atoms returns each atom's slice of the root space, in merge order
// (exposed for tests and debugging endpoints).
func (a *Analyzer) Atoms() []index.Space {
	out := make([]index.Space, len(a.atoms))
	for i, at := range a.atoms {
		out[i] = at.space
	}
	return out
}

// Close shuts the shard goroutines down and waits for them. Idempotent;
// Analyze must not be called after Close.
func (a *Analyzer) Close() {
	if a.closed {
		return
	}
	a.closed = true
	for _, ch := range a.inboxes {
		close(ch)
	}
	a.workers.Wait()
}

// worker owns one shard goroutine: it drains its inbox and runs each
// handed atom's inner analyzer. All state it touches is either handed
// over through the job (the channel send happens-before the receive) or
// owned by the atoms assigned to it for that launch.
//
// confined to shard-worker
func (a *Analyzer) worker(k int) {
	defer a.workers.Done()
	cat := fmt.Sprintf("shard%d", k)
	for j := range a.inboxes[k] {
		sp := a.opts.Spans.Begin("shard.atoms", cat)
		for _, ai := range j.atoms {
			at := a.atoms[ai]
			j.results[ai] = at.an.Analyze(j.tasks[ai])
		}
		sp.End()
		j.done.Done()
	}
}

// mirror brings every atom's shadow tree up to date with the real tree,
// replaying partitions in creation order with each piece intersected
// against the atom. Creation order is preserved, so shadow region and
// partition IDs equal the real ones and requirement regions translate
// by ID alone.
func (a *Analyzer) mirror() {
	for _, at := range a.atoms {
		for pi := at.mirrored; pi < a.tree.NumPartitions(); pi++ {
			p := a.tree.PartitionAt(pi)
			pieces := make([]index.Space, len(p.Subregions))
			for i, sub := range p.Subregions {
				pieces[i] = sub.Space.Intersect(at.space)
			}
			at.tree.Region(p.Parent.ID).Partition(p.Name, pieces)
		}
		at.mirrored = a.tree.NumPartitions()
	}
}

// restrict translates t into at's shadow tree. It returns nil when none
// of t's requirements overlap the atom — the atom's analyzer would
// observe an entirely empty launch, contributing nothing.
func (at *atom) restrict(t *core.Task) *core.Task {
	active := false
	for _, req := range t.Reqs {
		if !at.tree.Region(req.Region.ID).Space.IsEmpty() {
			active = true
			break
		}
	}
	if !active {
		return nil
	}
	reqs := make([]core.Req, len(t.Reqs))
	for ri, req := range t.Reqs {
		reqs[ri] = core.Req{Region: at.tree.Region(req.Region.ID), Field: req.Field, Priv: req.Priv}
	}
	return &core.Task{ID: t.ID, Name: t.Name, Reqs: reqs, FutureDeps: t.FutureDeps}
}

// Analyze implements core.Analyzer: restrict t to every atom, run the
// atoms with work on their owning shards, wait, and merge the per-atom
// results back into the sequential analyzer's exact output.
//
// confined to analyzer
func (a *Analyzer) Analyze(t *core.Task) *core.Result {
	sp := a.opts.Spans.Begin("shard.analyze", "analysis")
	defer sp.End()
	a.launches++
	a.mirror()

	if a.scratchTasks == nil {
		a.scratchTasks = make([]*core.Task, len(a.atoms))
		a.scratchResults = make([]*core.Result, len(a.atoms))
		a.scratchShards = make([][]int, a.shards)
	}
	tasks, results, perShard := a.scratchTasks, a.scratchResults, a.scratchShards
	for i := range tasks {
		tasks[i], results[i] = nil, nil
	}
	for k := range perShard {
		perShard[k] = perShard[k][:0]
	}
	for ai, at := range a.atoms {
		rt := at.restrict(t)
		if rt == nil {
			a.cAtomSkips.Inc()
			continue
		}
		tasks[ai] = rt
		perShard[at.home] = append(perShard[at.home], ai)
		a.cAtomRuns.Inc()
	}

	if a.shards == 1 || a.serial {
		// Serial path (single shard, or a single-P scheduler): every
		// atom runs inline in atom order — no goroutine round trip, and
		// the work-splitting effect of the restricted trees is the whole
		// win.
		for ai, at := range a.atoms {
			if tasks[ai] != nil {
				results[ai] = at.an.Analyze(tasks[ai])
			}
		}
	} else {
		// The lowest-indexed shard with work runs inline on the submit
		// goroutine while the rest run on their workers: a launch confined
		// to one shard's atoms pays no channel round trip at all, and a
		// fanned-out launch saves one dispatch and overlaps with the rest.
		// Which goroutine runs an atom never shows: every atom's state is
		// touched only by its runner, and the merge below reads the results
		// after the barrier in atom order regardless.
		var done sync.WaitGroup
		inline := -1
		for k, ais := range perShard {
			if len(ais) == 0 {
				continue
			}
			if inline < 0 {
				inline = k
				continue
			}
			done.Add(1)
			a.inboxes[k] <- job{atoms: ais, tasks: tasks, results: results, done: &done}
			a.cDispatch.Inc()
		}
		if inline >= 0 {
			for _, ai := range perShard[inline] {
				results[ai] = a.atoms[ai].an.Analyze(tasks[ai])
			}
		}
		done.Wait()
	}

	// Merge in atom order: concatenation only, so every point's entry
	// order lands exactly where the sequential analyzer would have put it.
	var deps []int
	plans := make([][]core.Visible, len(t.Reqs))
	for _, res := range results {
		if res == nil {
			continue
		}
		deps = append(deps, res.Deps...)
		for ri := range plans {
			plans[ri] = append(plans[ri], res.Plans[ri]...)
		}
	}

	a.stats = core.Stats{}
	for _, at := range a.atoms {
		a.stats.Add(at.an.Stats())
	}
	a.stats.Launches = a.launches

	return &core.Result{Deps: core.DedupDeps(deps), Plans: plans}
}

var _ core.Analyzer = (*Analyzer)(nil)
