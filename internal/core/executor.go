package core

import (
	"fmt"
	"runtime"
	"sync"

	"visibility/internal/data"
	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/obs/recorder"
	"visibility/internal/privilege"
)

// Executor is the value-level realization of run_task (Figure 6): the
// dependence analysis runs sequentially in program order (as the paper's
// dynamic analyses require, §3.2), while the kernels it admits run
// concurrently, each released when its last predecessor finishes — the
// relaxation of sequential order into a parallel partial order that the
// dependence analysis exists to justify.
// A released task materializes each input from the committed outputs of
// the producers its plan names, runs its kernel, and commits its outputs.
// No global copy of the data exists: all state lives in per-requirement
// committed stores addressed by the analyzer's visibility computations,
// as distributed Legion instances would be.
type Executor struct {
	// an is the dynamic dependence analyzer: analysis observes launches
	// sequentially in program order (§3.2), so only the submitting
	// goroutine may touch it — runners get their inputs through
	// the mu-guarded tables below.
	an   Analyzer
	init map[field.ID]*data.Store
	rec  *recorder.Recorder // journals task launches (nil-safe)
	// Submit's chunks, also the submitting goroutine's alone: a node
	// runs after the analyzer's next launch, so it keeps a copy of the
	// plans the analyzer lent, the headers and the entries.
	plans Chunk[[]Visible]
	vis   Chunk[Visible]
	max   int // runners at once: GOMAXPROCS when the executor was made

	mu sync.Mutex
	// Committed outputs, one slot per requirement of every submitted
	// task: task id's requirement r commits to outs[base[id]+r], and its
	// slots end at base[id+1], so the last entry of base is len(outs).
	base []int         // guarded by mu; indexed by task ID, appended at Submit
	outs []*data.Store // guarded by mu

	// The dependence graph of in-flight tasks: live is a window of task
	// IDs from the oldest unfinished one, lo, to the newest submitted. A
	// node enters at Submit and its slot empties when its kernel has run;
	// finishLocked trims the emptied prefix, so scheduling state is
	// bounded by what is in flight, not by session length.
	live  []*node // guarded by mu; live[id-lo] is task id, nil once finished
	lo    int     // guarded by mu
	ready []*node // guarded by mu; FIFO of nodes with no live predecessor
	// A runner is a goroutine that runs ready nodes. One starts when a
	// node is released and fewer than max are running; it parks while
	// tasks are in flight and returns once none is, so an executor with
	// nothing in flight holds no goroutine.
	running int        // guarded by mu
	work    *sync.Cond // on mu: ready grew, or live emptied
	idle    *sync.Cond // on mu: live emptied
}

// node is one submitted, unfinished task. pending and succs are the
// executor's scheduling state and are touched only under Executor.mu; the
// other fields are fixed at Submit.
type node struct {
	t     *Task
	k     Kernel
	body  func(inputs []*data.Store)
	plans [][]Visible
	done  chan struct{} // closed once the task has executed

	pending int     // live predecessors still to finish
	succs   []*node // nodes waiting on this one, one entry per edge
}

// NewExecutor creates an executor over private copies of the initial
// contents; it runs at most GOMAXPROCS kernels at once. rec, when
// non-nil, journals one task_launch line per submitted task.
func NewExecutor(an Analyzer, init map[field.ID]*data.Store, rec *recorder.Recorder) *Executor {
	x := &Executor{
		an:   an,
		init: make(map[field.ID]*data.Store, len(init)),
		rec:  rec,
		max:  runtime.GOMAXPROCS(0),
		base: []int{0},
	}
	for f, s := range init {
		x.init[f] = s.Clone()
	}
	x.work = sync.NewCond(&x.mu)
	x.idle = sync.NewCond(&x.mu)
	return x
}

// Submit analyzes t in program order and schedules its kernel; it returns
// immediately with a channel closed once the task has executed and t's
// dependence row (Row) — recording the discovered graph is the caller's
// job, the executor knows only the edges still in flight.
// body, when non-nil, is run on the runner after inputs are materialized
// and before outputs commit, with the task's materialized inputs (indexed
// by requirement; reduce requirements have nil inputs).
func (x *Executor) Submit(t *Task, k Kernel, body func(inputs []*data.Store)) (done <-chan struct{}, deps []int) {
	x.rec.Log(recorder.KindTaskLaunch, int64(t.ID), int64(len(t.Reqs)))
	res := x.an.Analyze(t)
	if len(res.Plans) != len(t.Reqs) {
		panic(fmt.Sprintf("core: analyzer %s returned %d plans for %d reqs", x.an.Name(), len(res.Plans), len(t.Reqs)))
	}

	// Link the node to whichever of its analyzer and future dependences
	// are still live (a producer named by both is counted, and later
	// released, once per edge) and release it at once if there are none.
	plans := x.plans.Take(len(res.Plans))
	for ri, plan := range res.Plans {
		plans[ri] = x.vis.Clone(plan)
	}
	n := &node{t: t, k: k, body: body, plans: plans, done: make(chan struct{})}
	x.mu.Lock()
	if t.ID < len(x.base)-1 {
		panic(fmt.Sprintf("core: task %d submitted after task %d, out of program order", t.ID, len(x.base)-2))
	}
	for len(x.base) <= t.ID { // a task ID never submitted owns no slots
		x.base = append(x.base, len(x.outs))
	}
	x.outs = append(x.outs, make([]*data.Store, len(t.Reqs))...)
	x.base = append(x.base, len(x.outs))
	for _, ds := range [2][]int{res.Deps, t.FutureDeps} {
		for _, d := range ds {
			if p := x.liveLocked(d); p != nil {
				p.succs = append(p.succs, n)
				n.pending++
			}
		}
	}
	if len(x.live) == 0 {
		x.lo = t.ID
	}
	for x.lo+len(x.live) < t.ID {
		x.live = append(x.live, nil)
	}
	x.live = append(x.live, n)
	if n.pending == 0 {
		x.releaseLocked(n)
	}
	x.mu.Unlock()
	return n.done, Row(t, res.Deps)
}

// liveLocked returns in-flight task id's node, or nil if it has finished.
func (x *Executor) liveLocked(id int) *node {
	if i := id - x.lo; i >= 0 && i < len(x.live) {
		return x.live[i]
	}
	return nil
}

// releaseLocked puts a node whose last predecessor has finished on the
// ready queue, and starts a runner for it if fewer than max are running.
func (x *Executor) releaseLocked(n *node) {
	x.ready = append(x.ready, n)
	if x.running < x.max {
		x.running++
		go x.runner()
		return
	}
	x.work.Signal()
}

// runner runs ready nodes until nothing is in flight.
func (x *Executor) runner() {
	x.mu.Lock()
	for {
		for len(x.ready) == 0 && len(x.live) > 0 {
			x.work.Wait()
		}
		if len(x.ready) == 0 {
			break
		}
		n := x.ready[0]
		x.ready[0] = nil // the queue's backing array must not keep finished tasks reachable
		x.ready = x.ready[1:]
		x.mu.Unlock()
		x.run(n)
		x.mu.Lock()
		x.finishLocked(n)
	}
	x.running--
	x.mu.Unlock()
}

// finishLocked retires an executed node: it leaves the live table,
// releases the successors it was the last live predecessor of, and
// signals completion. Once nothing is live, it wakes Drain and the
// parked runners, which return.
func (x *Executor) finishLocked(n *node) {
	x.live[n.t.ID-x.lo] = nil
	for len(x.live) > 0 && x.live[0] == nil {
		x.live = x.live[1:]
		x.lo++
	}
	for _, s := range n.succs {
		if s.pending--; s.pending == 0 {
			x.releaseLocked(s)
		}
	}
	close(n.done)
	if len(x.live) == 0 {
		x.idle.Broadcast()
		x.work.Broadcast()
	}
}

// run executes one released task: materialize, body, kernel, commit.
func (x *Executor) run(n *node) {
	inputs := make([]*data.Store, len(n.t.Reqs))
	for ri, req := range n.t.Reqs {
		if !req.Priv.IsReduce() {
			inputs[ri] = Materialize(req, n.plans[ri], x.source)
		}
	}
	if n.body != nil {
		n.body(inputs)
	}
	RunKernel(n.t, n.k, inputs, n.body != nil, func(ri int, out *data.Store) {
		x.mu.Lock()
		x.outs[x.base[n.t.ID]+ri] = out
		x.mu.Unlock()
	})
}

func (x *Executor) source(v Visible, f field.ID) *data.Store {
	if v.Task == InitialTask {
		return x.init[f]
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	var s *data.Store
	if v.Task >= 0 && v.Task+1 < len(x.base) && v.Req >= 0 && v.Req < x.base[v.Task+1]-x.base[v.Task] {
		s = x.outs[x.base[v.Task]+v.Req]
	}
	if s == nil {
		panic(fmt.Sprintf("core: plan references uncommitted producer %d.%d — missing dependence", v.Task, v.Req))
	}
	return s
}

// Drain waits for every submitted task to complete.
func (x *Executor) Drain() {
	x.mu.Lock()
	for len(x.live) > 0 {
		x.idle.Wait()
	}
	x.mu.Unlock()
}

// Materialize reconstructs the current contents of req's points by applying
// plan in order over undefined storage: write entries copy the producer's
// committed values, reduce entries fold the producer's contributions (paint,
// Figure 7). source returns the store a plan entry's producer committed.
func Materialize(req Req, plan []Visible, source func(Visible, field.ID) *data.Store) *data.Store {
	in := data.NewStore(req.Region.Space)
	for _, v := range plan {
		src := source(v, req.Field)
		switch {
		case v.Priv.IsWrite():
			in.CopyFrom(src, v.Pts)
		case v.Priv.IsReduce():
			in.Fold(src, v.Pts, v.Priv.Op)
		default:
			panic(fmt.Sprintf("core: read entry %v in materialization plan", v))
		}
	}
	return in
}

// RunKernel is the execute-and-commit half of run_task (Figure 6): for
// every write requirement it maps k over the materialized input (an
// undefined point reads as 0, as in Seq), for every reduce requirement it
// folds k's contribution into an identity-initialized buffer (Figure 7
// line 15), and it hands each output store to commit. A write maps in
// place over its input, which then becomes the output, unless keep asks
// for the inputs to survive — for a caller that has handed them out.
func RunKernel(t *Task, k Kernel, inputs []*data.Store, keep bool, commit func(ri int, out *data.Store)) {
	for ri, req := range t.Reqs {
		switch {
		case req.Priv.IsWrite():
			out := inputs[ri]
			if keep {
				out = data.NewStore(req.Region.Space)
			}
			out.Map(inputs[ri], func(p geometry.Point, cur float64) float64 {
				return k.WriteValue(t, ri, p, cur)
			})
			commit(ri, out)
		case req.Priv.IsReduce():
			op := req.Priv.Op
			out := data.NewStore(req.Region.Space)
			out.Fill(func(p geometry.Point) float64 {
				return privilege.Apply(op, privilege.Identity(op), k.ReduceValue(t, ri, p))
			})
			commit(ri, out)
		}
	}
}
