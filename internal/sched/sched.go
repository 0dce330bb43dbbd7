// Package sched executes analyzed task streams with real parallelism: the
// dependence analysis runs sequentially in program order (as the paper's
// dynamic analyses require, §3.2), while the kernels it admits run
// concurrently on a pool of workers, each released when its last
// predecessor finishes — the relaxation of sequential order into a
// parallel partial order that the dependence analysis exists to justify.
package sched

import (
	"fmt"
	"strconv"
	"sync"

	"visibility/internal/core"
	"visibility/internal/data"
	"visibility/internal/fault"
	"visibility/internal/field"
	"visibility/internal/obs"
	"visibility/internal/obs/recorder"
	"visibility/internal/region"
)

// Executor runs tasks through an analyzer and executes their kernels in
// parallel, respecting only the analyzer-reported dependences.
type Executor struct {
	tree *region.Tree
	// an is the dynamic dependence analyzer: analysis observes launches
	// sequentially in program order (§3.2), so only the submitting
	// goroutine may touch it — workers get their inputs through
	// the mu-guarded tables below.
	//
	// confined to sched-submit
	an   core.Analyzer
	init map[field.ID]*data.Store

	mu        sync.Mutex
	committed map[commitKey]*data.Store // guarded by mu
	deps      map[int][]int             // guarded by mu; analyzer deps per task

	// The dependence graph of in-flight tasks: a node enters live at
	// Submit and leaves when its kernel has run, so scheduling state is
	// bounded by what is in flight, not by session length.
	live    map[int]*node // guarded by mu; submitted, not yet finished
	ready   []*node       // guarded by mu; FIFO of nodes with no live predecessor
	stopped bool          // guarded by mu
	work    *sync.Cond    // on mu: ready grew, or stopped was set
	idle    *sync.Cond    // on mu: live emptied
	workers sync.WaitGroup

	// Physical-instance cache: two materializations driven by identical
	// plans produce identical contents, so the store can be reused
	// instead of re-copied — the analog of Legion reusing a valid
	// physical instance instead of issuing copies. Materialized stores
	// are immutable by construction (kernels write fresh output stores).
	instances map[instanceKey]*data.Store // guarded by mu
	instanceQ []instanceKey               // guarded by mu; FIFO eviction order
	maxCached int

	// Cache outcomes live on the executor's obs registry (atomic, so
	// workers need no lock to bump them); CacheStats reads them back.
	cacheHits *obs.Counter
	cacheMiss *obs.Counter

	// Flight recorder for coarse event journaling (nil-safe).
	rec *recorder.Recorder

	// Fault-injection plane (nil-safe): CacheBypass forces instance-cache
	// misses, exercising the invariant that the cache is a pure
	// optimization.
	faults *fault.Injector

	// prov, when non-nil, accumulates per-launch cost samples (analyzer
	// op deltas, virtual exec time) next to the EdgeReasons the analyzer
	// itself records through the shared core.Provenance.
	//
	// confined to sched-submit
	prov *core.Provenance
}

// node is one submitted, unfinished task. pending and succs are the
// executor's scheduling state and are touched only under Executor.mu; the
// other fields are fixed at Submit.
type node struct {
	t     *core.Task
	k     core.Kernel
	body  func(inputs []*data.Store)
	plans [][]core.Visible
	done  chan struct{} // closed once the task has executed

	pending int     // live predecessors still to finish
	succs   []*node // nodes waiting on this one, one entry per edge
}

type commitKey struct {
	task int
	req  int
}

type instanceKey struct {
	field field.ID
	space string // index-space key
	plan  string // plan signature: producers, privileges, points
}

// NewExecutor creates an executor with the given number of workers. From
// opts it takes the registry its cache counters publish into (nil gets a
// private one), the flight recorder journaling task launches and
// instance-cache outcomes, the fault plane behind the CacheBypass site,
// and the provenance store sampling per-launch costs (the analyzer's own
// EdgeReason capture reaches the same store through its own Options); nil
// disables each.
func NewExecutor(tree *region.Tree, an core.Analyzer, init map[field.ID]*data.Store, workers int, opts core.Options) *Executor {
	if workers < 1 {
		workers = 1
	}
	metrics := opts.Normalize().Metrics
	x := &Executor{
		tree:      tree,
		an:        an,
		init:      make(map[field.ID]*data.Store, len(init)),
		committed: make(map[commitKey]*data.Store),
		deps:      make(map[int][]int),
		live:      make(map[int]*node),
		instances: make(map[instanceKey]*data.Store),
		maxCached: 256,
		cacheHits: metrics.NewCounter("sched/cache/hits"),
		cacheMiss: metrics.NewCounter("sched/cache/misses"),
		rec:       opts.Recorder,
		faults:    opts.Faults,
		prov:      opts.Prov,
	}
	for f, s := range init {
		x.init[f] = s.Clone()
	}
	x.work = sync.NewCond(&x.mu)
	x.idle = sync.NewCond(&x.mu)
	x.workers.Add(workers)
	for i := 0; i < workers; i++ {
		go x.worker()
	}
	return x
}

// Analyzer returns the executor's analyzer (for stats inspection).
//
// confined to sched-submit
func (x *Executor) Analyzer() core.Analyzer { return x.an }

// Submit analyzes t in program order and schedules its kernel; it returns
// immediately with a channel closed once the task has executed. body, when
// non-nil, is run on the worker after inputs are materialized and before
// outputs commit, with the task's materialized inputs (indexed by
// requirement; reduce requirements have nil inputs).
//
// confined to sched-submit
func (x *Executor) Submit(t *core.Task, k core.Kernel, body func(inputs []*data.Store)) <-chan struct{} {
	x.rec.Log(recorder.KindTaskLaunch, int64(t.ID), int64(len(t.Reqs)))
	res := x.an.Analyze(t)
	if len(res.Plans) != len(t.Reqs) {
		panic(fmt.Sprintf("sched: analyzer %s returned %d plans for %d reqs", x.an.Name(), len(res.Plans), len(t.Reqs)))
	}
	if x.prov != nil {
		// The launch's deterministic cost sample: its analysis volume
		// (requirements analyzed plus dependence edges discovered), plus
		// the points its requirements touch as a unit-cost virtual
		// execution time. Both are properties of the task stream and its
		// discovered graph — not of analyzer internals — so critical paths
		// weighted by them are byte-reproducible across runs and across
		// analyzer/sharding configurations. Measured operation counters
		// stay in Stats() and the metrics registry.
		var exec int64
		for _, req := range t.Reqs {
			exec += req.Region.Space.Volume()
		}
		x.prov.AddCost(t.ID, core.TaskCost{AnalysisOps: int64(len(t.Reqs) + len(res.Deps)), ExecVirt: exec})
		x.rec.Log(recorder.KindReasonCapture, int64(t.ID), int64(len(x.prov.Reasons(t.ID))))
	}

	// Link the node to whichever of its analyzer and future dependences
	// are still live (a producer named by both is counted, and later
	// released, once per edge) and release it at once if there are none.
	n := &node{t: t, k: k, body: body, plans: res.Plans, done: make(chan struct{})}
	x.mu.Lock()
	x.deps[t.ID] = append([]int(nil), res.Deps...)
	for _, ds := range [2][]int{res.Deps, t.FutureDeps} {
		for _, d := range ds {
			if p, ok := x.live[d]; ok {
				p.succs = append(p.succs, n)
				n.pending++
			}
		}
	}
	x.live[t.ID] = n
	if n.pending == 0 {
		x.releaseLocked(n)
	}
	x.mu.Unlock()
	return n.done
}

// releaseLocked puts a node whose last predecessor has finished on the
// ready queue.
func (x *Executor) releaseLocked(n *node) {
	x.ready = append(x.ready, n)
	x.work.Signal()
}

// worker runs ready nodes until Shutdown.
func (x *Executor) worker() {
	defer x.workers.Done()
	for n := x.next(); n != nil; n = x.next() {
		x.run(n)
		x.finish(n)
	}
}

// next blocks for the head of the ready queue; nil means Shutdown.
func (x *Executor) next() *node {
	x.mu.Lock()
	defer x.mu.Unlock()
	for len(x.ready) == 0 {
		if x.stopped {
			return nil
		}
		x.work.Wait()
	}
	n := x.ready[0]
	x.ready[0] = nil // the queue's backing array must not keep finished tasks reachable
	x.ready = x.ready[1:]
	return n
}

// finish retires an executed node: it leaves the live table, releases the
// successors it was the last live predecessor of, and signals completion.
func (x *Executor) finish(n *node) {
	x.mu.Lock()
	defer x.mu.Unlock()
	delete(x.live, n.t.ID)
	for _, s := range n.succs {
		if s.pending--; s.pending == 0 {
			x.releaseLocked(s)
		}
	}
	close(n.done)
	if len(x.live) == 0 {
		x.idle.Broadcast()
	}
}

// run executes one released task: materialize, body, kernel, commit.
func (x *Executor) run(n *node) {
	inputs := make([]*data.Store, len(n.t.Reqs))
	for ri, req := range n.t.Reqs {
		if !req.Priv.IsReduce() {
			inputs[ri] = x.materialize(req, n.plans[ri])
		}
	}
	if n.body != nil {
		n.body(inputs)
	}
	core.RunKernel(n.t, n.k, inputs, func(ri int, out *data.Store) { x.commit(n.t.ID, ri, out) })
}

func (x *Executor) commit(task, req int, s *data.Store) {
	x.mu.Lock()
	x.committed[commitKey{task, req}] = s
	x.mu.Unlock()
}

func (x *Executor) source(v core.Visible, f field.ID) *data.Store {
	if v.Task == core.InitialTask {
		return x.init[f]
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	s := x.committed[commitKey{v.Task, v.Req}]
	if s == nil {
		panic(fmt.Sprintf("sched: plan references uncommitted producer %d.%d — missing dependence", v.Task, v.Req))
	}
	return s
}

// planSignature uniquely identifies a materialization's inputs: the same
// producers contributing the same points with the same privileges yield
// the same contents.
func planSignature(plan []core.Visible) string {
	var buf [256]byte
	b := buf[:0]
	for _, v := range plan {
		b = append(strconv.AppendInt(b, int64(v.Task), 10), '.')
		b = append(strconv.AppendInt(b, int64(v.Req), 10), v.Priv.String()...)
		b = append(v.Pts.AppendKey(append(b, ':')), ';')
	}
	return string(b)
}

func (x *Executor) materialize(req core.Req, plan []core.Visible) *data.Store {
	key := instanceKey{field: req.Field, space: req.Region.Space.Key(), plan: planSignature(plan)}
	// Fault plane: a CacheBypass fire skips the lookup, forcing a fresh
	// materialization of contents the cache already holds — correctness
	// must not depend on instance reuse.
	bypass := x.faults.Fire(fault.CacheBypass, int64(req.Field))
	x.mu.Lock()
	if st, ok := x.instances[key]; ok && !bypass {
		x.mu.Unlock()
		x.cacheHits.Inc()
		x.rec.Log(recorder.KindCacheHit, int64(req.Field), 0)
		return st
	}
	x.mu.Unlock()
	x.cacheMiss.Inc()
	x.rec.Log(recorder.KindCacheMiss, int64(req.Field), 0)

	in := core.Materialize(req, plan, x.source)

	x.mu.Lock()
	if _, dup := x.instances[key]; !dup {
		x.instances[key] = in
		x.instanceQ = append(x.instanceQ, key)
		if len(x.instanceQ) > x.maxCached {
			evict := x.instanceQ[0]
			x.instanceQ = x.instanceQ[1:]
			delete(x.instances, evict)
		}
	}
	x.mu.Unlock()
	return in
}

// CacheStats returns the physical-instance cache's hit and miss counters
// (thin reads over the registry counters).
func (x *Executor) CacheStats() (hits, misses int64) {
	return x.cacheHits.Load(), x.cacheMiss.Load()
}

// Deps returns a copy of the analyzer-reported dependences of every
// submitted task, keyed by task ID — the discovered dependence graph
// (future edges live on the tasks themselves).
func (x *Executor) Deps() map[int][]int {
	x.mu.Lock()
	defer x.mu.Unlock()
	out := make(map[int][]int, len(x.deps))
	for id, ds := range x.deps {
		out[id] = append([]int(nil), ds...)
	}
	return out
}

// Drain waits for every submitted task to complete.
func (x *Executor) Drain() {
	x.mu.Lock()
	for len(x.live) > 0 {
		x.idle.Wait()
	}
	x.mu.Unlock()
}

// Shutdown drains and stops the workers.
func (x *Executor) Shutdown() {
	x.Drain()
	x.mu.Lock()
	x.stopped = true
	x.mu.Unlock()
	x.work.Broadcast()
	x.workers.Wait()
}
