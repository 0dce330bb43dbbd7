// Package sched executes analyzed task streams with real parallelism: the
// dependence analysis runs sequentially in program order (as the paper's
// dynamic analyses require, §3.2), while the kernels it admits run
// concurrently on a pool of processors gated by completion events — the
// relaxation of sequential order into a parallel partial order that the
// dependence analysis exists to justify.
package sched

import (
	"fmt"
	"strconv"
	"sync"

	"visibility/internal/core"
	"visibility/internal/data"
	"visibility/internal/event"
	"visibility/internal/fault"
	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/obs"
	"visibility/internal/obs/recorder"
	"visibility/internal/privilege"
	"visibility/internal/region"
)

// Executor runs tasks through an analyzer and executes their kernels in
// parallel, respecting only the analyzer-reported dependences.
type Executor struct {
	tree *region.Tree
	// an is the dynamic dependence analyzer: analysis observes launches
	// sequentially in program order (§3.2), so only the submitting
	// goroutine may touch it — worker closures get their inputs through
	// the mu-guarded tables below.
	//
	// confined to sched-submit
	an   core.Analyzer
	init map[field.ID]*data.Store

	procs []*event.Processor
	// next is the round-robin processor cursor.
	//
	// confined to sched-submit
	next int

	mu        sync.Mutex
	committed map[commitKey]*data.Store // guarded by mu
	events    map[int]*event.Event      // guarded by mu
	all       []*event.Event            // guarded by mu
	deps      map[int][]int             // guarded by mu; analyzer deps per task

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
	metrics   *obs.Registry
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

type commitKey struct {
	task int
	req  int
}

type instanceKey struct {
	field field.ID
	space string // index-space key
	plan  string // plan signature: producers, privileges, points
}

// NewExecutor creates an executor with workers parallel processors. From
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
		events:    make(map[int]*event.Event),
		deps:      make(map[int][]int),
		instances: make(map[instanceKey]*data.Store),
		maxCached: 256,
		metrics:   metrics,
		cacheHits: metrics.NewCounter("sched/cache/hits"),
		cacheMiss: metrics.NewCounter("sched/cache/misses"),
		rec:       opts.Recorder,
		faults:    opts.Faults,
		prov:      opts.Prov,
	}
	for f, s := range init {
		x.init[f] = s.Clone()
	}
	for i := 0; i < workers; i++ {
		x.procs = append(x.procs, event.NewProcessor(64))
	}
	return x
}

// Analyzer returns the executor's analyzer (for stats inspection).
//
// confined to sched-submit
func (x *Executor) Analyzer() core.Analyzer { return x.an }

// Submit analyzes t in program order and schedules its kernel; it returns
// immediately with the task's completion event. body, when non-nil, is run
// on the worker after inputs are materialized and before outputs commit,
// with the task's materialized inputs (indexed by requirement; reduce
// requirements have nil inputs).
//
// confined to sched-submit
func (x *Executor) Submit(t *core.Task, k core.Kernel, body func(inputs []*data.Store)) *event.Event {
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

	x.mu.Lock()
	x.deps[t.ID] = append([]int(nil), res.Deps...)
	pres := make([]*event.Event, 0, len(res.Deps)+len(t.FutureDeps))
	for _, d := range res.Deps {
		if e, ok := x.events[d]; ok {
			pres = append(pres, e)
		}
	}
	for _, fd := range t.FutureDeps {
		if e, ok := x.events[fd]; ok {
			pres = append(pres, e)
		}
	}
	x.mu.Unlock()
	pre := event.Merge(pres...)

	proc := x.procs[x.next%len(x.procs)]
	x.next++
	done := proc.Spawn(pre, func() {
		inputs := make([]*data.Store, len(t.Reqs))
		for ri, req := range t.Reqs {
			if !req.Priv.IsReduce() {
				inputs[ri] = x.materialize(req, res.Plans[ri])
			}
		}
		if body != nil {
			body(inputs)
		}
		core.RunKernel(t, k, inputs, func(ri int, out *data.Store) { x.commit(t.ID, ri, out) })
	})

	x.mu.Lock()
	x.events[t.ID] = done
	x.all = append(x.all, done)
	x.mu.Unlock()
	return done
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

// Metrics returns the executor's metrics registry.
func (x *Executor) Metrics() *obs.Registry { return x.metrics }

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
	all := append([]*event.Event(nil), x.all...)
	x.mu.Unlock()
	for _, e := range all {
		e.Wait()
	}
}

// Shutdown drains and stops the worker processors.
func (x *Executor) Shutdown() {
	x.Drain()
	for _, p := range x.procs {
		p.Shutdown()
	}
}

// Read materializes the current contents of a region/field through the
// analyzer by submitting a read-only task and waiting for it. It is the
// "inline mapping" used by examples to observe results.
func (x *Executor) Read(stream *core.Stream, r *region.Region, f field.ID) *data.Store {
	var got *data.Store
	t := stream.Launch("inline-read", core.Req{Region: r, Field: f, Priv: privilege.Reads()})
	done := x.Submit(t, nopKernel{}, func(inputs []*data.Store) { got = inputs[0] })
	done.Wait()
	return got
}

type nopKernel struct{}

func (nopKernel) WriteValue(*core.Task, int, geometry.Point, float64) float64 { return 0 }
func (nopKernel) ReduceValue(*core.Task, int, geometry.Point) float64         { return 0 }
