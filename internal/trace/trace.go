// Package trace implements dynamic tracing: memoization of the dependence
// and coherence analysis for repetitive task streams, after Lee et al.,
// "Dynamic Tracing: Memoization of Task Graphs for Dynamic Task-Based
// Runtimes" (SC'18). The paper's evaluation (§8) disables Legion's tracing
// to isolate the coherence algorithms; this package reproduces the
// mechanism so that the claim — tracing removes the per-launch analysis
// cost in steady state — can itself be measured.
//
// A Tracer wraps any core.Analyzer. The application brackets a repetitive
// section with Begin(id)/End. The first instance of a trace records every
// launch's analysis result together with a structural signature; later
// instances that match the signature and are contiguous with the previous
// instance replay the memoized results, translating dependence and
// plan-producer task IDs by the trace's stream offset, without consulting
// the underlying analyzer at all. Any mismatch invalidates the trace: the
// buffered launches are re-analyzed through the wrapped analyzer (whose
// state must catch up), the rest of the instance is analyzed untraced, and
// the next instance records afresh.
package trace

import (
	"visibility/internal/core"
	"visibility/internal/field"
	"visibility/internal/index"
	"visibility/internal/obs"
	"visibility/internal/privilege"
)

// Stats extends the analyzer counters with tracing outcomes.
type Stats struct {
	Recorded      int64 // launches recorded
	Replayed      int64 // launches replayed from a trace
	Invalidations int64 // traces dropped due to mismatch
}

// Tracer is a memoizing wrapper around an analyzer. Not safe for
// concurrent use (like the analyzers themselves).
type Tracer struct {
	an   core.Analyzer
	opts core.Options

	// Tracing outcomes live on the obs registry of the tracer's options
	// (a private registry when none was supplied); TraceStats reads them
	// back, so existing callers see the same numbers.
	recorded      *obs.Counter
	replayed      *obs.Counter
	invalidations *obs.Counter

	// last is the most recent trace that recorded a launch. It is the only
	// one that can replay: contiguity (Begin) fails for every older trace
	// once a newer one has seen a launch, so nothing else is kept.
	last *traceState

	mode      int // idle, recording, replaying, untraced
	active    *traceState
	replayIdx int
	startID   int // first task ID of the current instance

	// pending holds launches whose analysis was replayed (skipped); the
	// wrapped analyzer must observe them before it can analyze anything
	// new.
	pending []*core.Task
	lastID  int // last task ID seen (for contiguity checks)
}

const (
	idle = iota
	recording
	replaying
	untraced // the rest of an instance whose replay diverged
)

type traceState struct {
	id       int
	sigs     []signature
	results  []recordedResult
	startID  int // task ID of the recording's first launch
	lastInst int // first task ID of the most recent instance
	valid    bool
	// written accumulates, per field, the points written by tasks inside
	// the trace — used to validate that initial-contents plan entries are
	// really stable across instances.
	written map[field.ID]index.Space
}

type signature struct {
	name string
	reqs []reqSig
}

type reqSig struct {
	region int
	field  field.ID
	priv   privilege.Privilege
}

// recordedResult stores deps and plans relative to the trace start.
type recordedResult struct {
	depOffsets []int // dep = instanceStart + offset (offset may be negative)
	plans      [][]recordedVisible
	planFields []field.ID // field of each requirement's plan
}

type recordedVisible struct {
	offset  int // producer = instanceStart + offset
	initial bool
	req     int
	priv    privilege.Privilege
	pts     index.Space
}

// New wraps an analyzer with a tracer.
func New(an core.Analyzer, opts core.Options) *Tracer {
	opts = opts.Normalize()
	return &Tracer{
		an:            an,
		opts:          opts,
		recorded:      opts.Metrics.NewCounter("trace/recorded"),
		replayed:      opts.Metrics.NewCounter("trace/replayed"),
		invalidations: opts.Metrics.NewCounter("trace/invalidations"),
		lastID:        -1,
	}
}

// Name implements core.Analyzer.
func (tr *Tracer) Name() string { return tr.an.Name() + "+trace" }

// Stats implements core.Analyzer (the wrapped analyzer's counters).
func (tr *Tracer) Stats() *core.Stats { return tr.an.Stats() }

// TraceStats returns the tracing counters (a thin read over the registry
// counters the tracer publishes).
func (tr *Tracer) TraceStats() Stats {
	return Stats{
		Recorded:      tr.recorded.Load(),
		Replayed:      tr.replayed.Load(),
		Invalidations: tr.invalidations.Load(),
	}
}

// Replaying reports whether the tracer is currently inside a replaying
// instance — the window in which an invalidation actually discards
// memoized work (the autotracer's forced-invalidation fault site only
// fires here).
func (tr *Tracer) Replaying() bool { return tr.mode == replaying }

// Begin starts a trace instance. If the most recent trace has this id, is
// still valid, and this instance is contiguous with its previous one, the
// instance replays; otherwise it records a fresh trace, which takes the
// slot once it records a launch (an empty instance leaves it as it was).
func (tr *Tracer) Begin(id int) {
	if tr.mode != idle {
		panic("trace: Begin inside an active trace")
	}
	// Contiguity: the new instance must start exactly one recorded
	// period after the previous one, so relative offsets resolve to
	// structurally identical launches of the previous instance.
	if ts := tr.last; ts != nil && ts.id == id && ts.valid && tr.lastID+1 == ts.lastInst+len(ts.sigs) {
		tr.mode = replaying
		tr.active = ts
		tr.replayIdx = 0
		tr.startID = tr.lastID + 1
		return
	}
	tr.mode = recording
	tr.active = &traceState{id: id}
	tr.startID = -1
}

// replayable decides whether a recorded trace is period-invariant, i.e.
// whether replaying it with all task references shifted by one period
// reproduces what real analysis would compute. Two recorded patterns break
// that invariance and force the trace to stay invalid (every instance
// re-records and runs real analysis):
//
//  1. a dependence or plan producer more than one period old — its
//     absolute identity would shift under replay, but the referenced task
//     (e.g. a pre-loop initializer) does not recur;
//  2. a plan mixing previous-instance reductions with the region's
//     initial contents — no write inside the window bounds the visible
//     reductions, so they accumulate and the plan grows every iteration
//     instead of repeating. (Cross-instance reductions occluded by a
//     write within the last period are shift-invariant and fine — the
//     Figure 1 loop is exactly that shape.)
//  3. a plan reading initial contents of points the trace itself writes —
//     after one instance those points hold task outputs, so the recorded
//     "read initial data" entry would replay stale values.
func replayable(ts *traceState) bool {
	period := len(ts.sigs)
	if period == 0 {
		return false
	}
	for _, rec := range ts.results {
		for _, off := range rec.depOffsets {
			if off < -period {
				return false
			}
		}
		for ri, plan := range rec.plans {
			hasInitial := false
			hasCrossReduce := false
			for _, rv := range plan {
				if rv.initial {
					hasInitial = true
					if w, ok := ts.written[rec.planFields[ri]]; ok && w.Overlaps(rv.pts) {
						return false
					}
					continue
				}
				if rv.offset < -period {
					return false
				}
				if rv.offset < 0 && rv.priv.IsReduce() {
					hasCrossReduce = true
				}
			}
			if hasInitial && hasCrossReduce {
				return false
			}
		}
	}
	return true
}

// End finishes the current trace instance and reports whether the trace
// it leaves behind can replay: false after a recording that replayable
// rejects, or a replay that stopped short and was invalidated.
func (tr *Tracer) End() bool {
	ts := tr.active
	switch tr.mode {
	case recording:
		ts.valid = replayable(ts)
		ts.lastInst = ts.startID
	case replaying:
		if tr.replayIdx != len(ts.sigs) {
			// Short instance: structure changed; drop the trace.
			tr.invalidate()
		} else {
			ts.lastInst = tr.startID
		}
	case untraced:
		// Invalidated where the replay diverged.
	default:
		panic("trace: End without Begin")
	}
	tr.mode = idle
	tr.active = nil
	return ts.valid
}

// invalidate drops the active trace and re-analyzes everything the wrapped
// analyzer missed.
func (tr *Tracer) invalidate() {
	span := tr.opts.Spans.Begin("trace.invalidate", "trace")
	defer span.End()
	tr.invalidations.Inc()
	tr.active.valid = false
	tr.drain()
}

// drain catches the wrapped analyzer up on replayed launches.
func (tr *Tracer) drain() {
	for _, t := range tr.pending {
		tr.an.Analyze(t)
	}
	tr.pending = tr.pending[:0]
}

func sigOf(t *core.Task) signature {
	s := signature{name: t.Name, reqs: make([]reqSig, len(t.Reqs))}
	for i, r := range t.Reqs {
		s.reqs[i] = reqSig{region: r.Region.ID, field: r.Field, priv: r.Priv}
	}
	return s
}

func sigEqual(a, b signature) bool {
	if a.name != b.name || len(a.reqs) != len(b.reqs) {
		return false
	}
	for i := range a.reqs {
		if a.reqs[i] != b.reqs[i] {
			return false
		}
	}
	return true
}

// Analyze implements core.Analyzer.
func (tr *Tracer) Analyze(t *core.Task) *core.Result {
	defer func() { tr.lastID = t.ID }()
	switch tr.mode {
	case replaying:
		ts := tr.active
		if tr.replayIdx >= len(ts.sigs) || !sigEqual(ts.sigs[tr.replayIdx], sigOf(t)) {
			// Structure diverged: drop the trace and analyze the rest of
			// the instance untraced. A recording started mid-instance could
			// never pass contiguity, so the next instance records instead.
			tr.invalidate()
			tr.mode = untraced
			return tr.an.Analyze(t)
		}
		span := tr.opts.Spans.Begin("trace.replay", "trace")
		defer span.End()
		rec := ts.results[tr.replayIdx]
		tr.replayIdx++
		tr.pending = append(tr.pending, t)
		tr.replayed.Inc()
		// Replay is a constant-time local operation per launch.
		tr.opts.Probe.Touch(core.LocalOwner, 1)
		return tr.instantiate(t, rec)

	case recording:
		if tr.startID == -1 {
			tr.startID = t.ID
			tr.active.startID = t.ID
			tr.last = tr.active
		}
		return tr.analyzeAndRecord(t)

	default: // idle or untraced
		tr.drain()
		return tr.an.Analyze(t)
	}
}

// analyzeAndRecord runs the real analysis and memoizes the result relative
// to the trace start.
func (tr *Tracer) analyzeAndRecord(t *core.Task) *core.Result {
	tr.drain()
	res := tr.an.Analyze(t)
	ts := tr.active
	span := tr.opts.Spans.Begin("trace.record", "trace")
	defer span.End()
	rec := recordedResult{
		plans:      make([][]recordedVisible, len(res.Plans)),
		planFields: make([]field.ID, len(res.Plans)),
	}
	if ts.written == nil {
		ts.written = make(map[field.ID]index.Space)
	}
	for _, req := range t.Reqs {
		if req.Priv.IsWrite() {
			cur, ok := ts.written[req.Field]
			if !ok {
				cur = index.Empty(req.Region.Space.Dim())
			}
			ts.written[req.Field] = cur.Union(req.Region.Space)
		}
	}
	for ri, req := range t.Reqs {
		rec.planFields[ri] = req.Field
	}
	for _, d := range res.Deps {
		rec.depOffsets = append(rec.depOffsets, d-tr.startID)
	}
	for ri, plan := range res.Plans {
		for _, v := range plan {
			rv := recordedVisible{req: v.Req, priv: v.Priv, pts: v.Pts}
			if v.Task == core.InitialTask {
				rv.initial = true
			} else {
				rv.offset = v.Task - tr.startID
			}
			rec.plans[ri] = append(rec.plans[ri], rv)
		}
	}
	ts.sigs = append(ts.sigs, sigOf(t))
	ts.results = append(ts.results, rec)
	tr.recorded.Inc()
	return res
}

// instantiate maps a recorded result to the current instance's task IDs.
func (tr *Tracer) instantiate(t *core.Task, rec recordedResult) *core.Result {
	res := &core.Result{Plans: make([][]core.Visible, len(t.Reqs))}
	for _, off := range rec.depOffsets {
		res.Deps = append(res.Deps, tr.startID+off)
	}
	res.Deps = core.DedupDeps(res.Deps)
	if tr.opts.Prov != nil {
		// Replayed launches never reach the analyzer, so their edges carry
		// trace provenance: the committed trace the offsets came from.
		// First-capture-wins in the store means a later invalidation
		// re-analysis cannot overwrite these — the replay is what the
		// runtime acted on.
		for _, d := range res.Deps {
			tr.opts.Prov.AddReason(core.EdgeReason{
				Src: d, Dst: t.ID, Kind: core.ReasonReplay,
				Analyzer: core.BaseName(tr.an.Name()), Trace: tr.active.id,
			})
		}
	}
	for ri, plan := range rec.plans {
		for _, rv := range plan {
			v := core.Visible{Req: rv.req, Priv: rv.priv, Pts: rv.pts}
			if rv.initial {
				v.Task = core.InitialTask
			} else {
				v.Task = tr.startID + rv.offset
			}
			res.Plans[ri] = append(res.Plans[ri], v)
		}
	}
	return res
}

// Verify that Tracer satisfies core.Analyzer.
var _ core.Analyzer = (*Tracer)(nil)
