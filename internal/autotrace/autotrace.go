package autotrace

import (
	"visibility/internal/core"
	"visibility/internal/fault"
	"visibility/internal/obs"
	"visibility/internal/obs/recorder"
)

// Detector tuning. The longest period searched for is the longest whose
// minReps copies fit the history the detector guarantees after bulk
// eviction (window/2): window / (2 * minReps) = 2048 launches, which covers
// circuit's 3-launch-per-node loop to 512 nodes.
const (
	window    = 8192 // launch hashes retained; also the most replays owed
	minPeriod = 1    // even a single-launch loop body replays profitably
	minReps   = 2    // consecutive copies seen before a candidate commits
)

// Stats summarizes the autotracer's outcomes.
type Stats struct {
	// Candidates is how many repeating patterns the detector committed.
	Candidates int64
	// Instances is how many instances completed (recorded or replayed).
	Instances int64
	// Aborts is how many instances diverged mid-instance and fell back to
	// direct analysis.
	Aborts int64
	// Trace counts launches recorded and replayed, and the replaying
	// instances invalidated (their replayed launches re-analyzed).
	Trace struct{ Recorded, Replayed, Invalidations int64 }
}

// Auto wraps an analyzer with automatic tracing: every launch is hashed
// into the detector's window, a confirmed repeat is recorded twice and,
// when the recordings agree, replayed from then on, and any divergence
// falls back to direct analysis. Like the analyzers it wraps, an Auto is
// driven from a single goroutine at a time.
//
// The state machine has four modes. In watching, launches are analyzed
// directly while the detector looks for a repeating suffix; a commit arms
// a candidate. In armed, a launch matching the candidate's first hash
// opens an instance, anything else retires the candidate — a clean loop
// exit, with nothing memoized pending. The first two instances record;
// the second replays for every later one only if it repeats the first
// shifted by one period, and otherwise its loop is declined for good. An
// instance closes after one full period and re-arms, so an instance only
// ever opens on the launch right after the previous one closed and
// relative task IDs resolve to the same launches of the previous
// instance. A mid-instance mismatch (or a fired trace.invalidate fault)
// aborts: a replaying instance invalidates and re-analyzes every replayed
// launch, a recording is dropped, and the trace id is retired.
// The detector window is fed inside instances too, so a surviving loop is
// re-detected and re-recorded within one period.
type Auto struct {
	an   core.Analyzer
	opts core.Options
	name string

	det *detector

	mode int
	// cand is the committed candidate: the hash sequence one instance
	// must reproduce.
	cand    []uint64
	pos     int // position inside the current instance
	traceID int // current trace id; bumped so aborted ids never replay
	// declined remembers the loops whose two recordings disagreed
	// (repeats), so the detector does not arm them again.
	declined map[loopKey]bool

	// tr is the candidate's trace: being recorded, or replayed by the next
	// instance; nil before the first recording and between the two.
	tr *trace
	// prev is the candidate's first recording, kept until the second one
	// closes and is compared against it.
	prev  *trace
	start int // task ID of the current instance's first launch

	// carve copies recorded and replayed results into these.
	results core.Chunk[core.Result]
	deps    core.Chunk[int]
	plans   core.Chunk[[]core.Visible]
	vis     core.Chunk[core.Visible]

	// pending holds launches whose analysis was replayed (skipped); the
	// wrapped analyzer must observe them before it can analyze anything
	// new. It holds fewer than window: replay drains a full window, so a
	// loop that never exits owes a bounded debt.
	pending []*core.Task

	// The counters live on the options' obs registry (atomics), so the
	// runtime owner may read them while the analyzer goroutine is
	// mid-launch. pendingLen follows len(pending).
	recorded, replayed, invalidations *obs.Counter
	pendingLen                        *obs.Gauge
	candidates, instances, aborts     *obs.Counter
}

const (
	watching = iota
	armed
	recording
	replaying
)

// trace is one recorded instance: its launches and their analysis
// results, in task IDs of the recording.
type trace struct {
	start   int // task ID of the recording's first launch
	tasks   []*core.Task
	results []*core.Result
}

// loopKey identifies a repeating unit independently of the phase the
// detector happened to catch it at: its period and the wrapping sum of its
// launch hashes are the same for every rotation.
type loopKey struct {
	period int
	sum    uint64
}

func keyOf(cand []uint64) loopKey {
	k := loopKey{period: len(cand)}
	for _, h := range cand {
		k.sum += h
	}
	return k
}

// New wraps an analyzer with an autotracer.
func New(an core.Analyzer, opts core.Options) *Auto {
	opts = opts.Normalize()
	return &Auto{
		an:            an,
		opts:          opts,
		name:          an.Name() + "+autotrace",
		det:           newDetector(window, minPeriod, window/(2*minReps), minReps),
		declined:      make(map[loopKey]bool),
		recorded:      opts.Metrics.NewCounter("trace/recorded"),
		replayed:      opts.Metrics.NewCounter("trace/replayed"),
		invalidations: opts.Metrics.NewCounter("trace/invalidations"),
		pendingLen:    opts.Metrics.NewGauge("trace/pending"),
		candidates:    opts.Metrics.NewCounter("autotrace/candidates"),
		instances:     opts.Metrics.NewCounter("autotrace/instances"),
		aborts:        opts.Metrics.NewCounter("autotrace/aborts"),
	}
}

// Name implements core.Analyzer.
func (a *Auto) Name() string { return a.name }

// Stats implements core.Analyzer (the wrapped analyzer's counters).
func (a *Auto) Stats() *core.Stats { return a.an.Stats() }

// AutoStats returns the autotracer's outcome counters. Safe from the
// runtime owner: everything read here is registry atomics.
func (a *Auto) AutoStats() Stats {
	st := Stats{Candidates: a.candidates.Load(), Instances: a.instances.Load(), Aborts: a.aborts.Load()}
	st.Trace.Recorded, st.Trace.Replayed, st.Trace.Invalidations = a.recorded.Load(), a.replayed.Load(), a.invalidations.Load()
	return st
}

// Analyze implements core.Analyzer.
func (a *Auto) Analyze(t *core.Task) *core.Result {
	h := Signature(t)
	if a.mode == armed {
		if h == a.cand[0] {
			a.mode, a.start, a.pos = replaying, t.ID, 0
			if a.tr == nil {
				a.mode, a.tr = recording, &trace{start: t.ID}
			}
		} else {
			// The loop exited between instances: no instance is open, so
			// retiring the candidate costs nothing.
			a.retire()
		}
	}
	switch a.mode {
	case recording:
		if h == a.cand[a.pos] {
			return a.advance(h, a.record(t))
		}
		a.abort()
	case replaying:
		// The forced-invalidation fault site only fires where an
		// invalidation has teeth: mid-replay, with memoized launches
		// pending re-analysis.
		if h == a.cand[a.pos] && sameShape(t, a.tr.tasks[a.pos]) && !a.opts.Faults.Fire(fault.TraceInvalidate, int64(t.ID)) {
			return a.advance(h, a.replay(t))
		}
		a.abort()
	}
	a.drain()
	res := a.an.Analyze(t)
	a.observe(h)
	return res
}

// drain catches the wrapped analyzer up on replayed launches.
func (a *Auto) drain() {
	for _, t := range a.pending {
		a.an.Analyze(t)
	}
	a.pendingLen.Add(-int64(len(a.pending)))
	a.pending = a.pending[:0]
}

// advance moves past one launch of an instance, closing the instance
// after a full period. Launches inside an instance still feed the window
// (without running detection), so an abort resumes from current history.
func (a *Auto) advance(h uint64, res *core.Result) *core.Result {
	a.det.push(h)
	a.pos++
	if a.pos < len(a.cand) {
		return res
	}
	a.instances.Inc()
	switch {
	case a.mode == replaying:
		a.opts.Recorder.Log(recorder.KindTraceReplay, int64(a.traceID), int64(len(a.cand)))
	case a.prev == nil:
		// The first recording waits for the second to compare against.
		a.prev, a.tr = a.tr, nil
	case !a.tr.repeats(a.prev):
		// Recording this loop again would pay for a recording every
		// iteration, so it is declined.
		a.declined[keyOf(a.cand)] = true
		a.traceID++
		a.retire()
		return res
	default:
		a.prev = nil
	}
	a.mode = armed
	return res
}

// abort ends an instance early. A replaying instance is invalidated and
// the wrapped analyzer re-analyzes every replayed launch; a partial
// recording is dropped with its retired id.
func (a *Auto) abort() {
	a.opts.Recorder.Log(recorder.KindTraceInvalidate, int64(a.traceID), int64(a.pos))
	a.aborts.Inc()
	if a.mode == replaying {
		a.invalidations.Inc()
		a.drain()
	}
	a.traceID++
	a.retire()
}

// retire drops the candidate and its recordings and returns to watching.
func (a *Auto) retire() {
	a.mode, a.cand, a.tr, a.prev = watching, nil, nil, nil
}

// observe feeds one watched launch's hash to the detector and arms a
// candidate when the stream's suffix repeats.
func (a *Auto) observe(h uint64) {
	a.det.push(h)
	if p := a.det.detect(); p > 0 && !a.declined[keyOf(a.det.tail(p))] {
		a.cand = a.det.candidate(p)
		a.candidates.Inc()
		a.opts.Recorder.Log(recorder.KindTraceCommit, int64(a.traceID), int64(p))
		a.mode = armed
	}
}

// record runs the real analysis and keeps a copy of its result. Nothing
// is pending: a recording follows a commit, made while watching.
func (a *Auto) record(t *core.Task) *core.Result {
	res := a.an.Analyze(t)
	a.tr.tasks = append(a.tr.tasks, t)
	a.tr.results = append(a.tr.results, a.carve(res, 0))
	a.recorded.Inc()
	return res
}

// replay instantiates the recorded result at a.pos for t, shifting every
// task reference by the distance between the recording and this
// instance, without consulting the wrapped analyzer.
func (a *Auto) replay(t *core.Task) *core.Result {
	a.pending = append(a.pending, t)
	a.pendingLen.Add(1)
	if len(a.pending) == window {
		a.drain()
	}
	a.replayed.Inc()
	// Replay is a constant-time local operation per launch.
	a.opts.Probe.Touch(core.LocalOwner, 1)
	return a.carve(a.tr.results[a.pos], a.start-a.tr.start)
}

// carve copies res into the chunks with every task reference moved by
// shift; a constant shift keeps the deps ascending and unique. A recording
// keeps the plans the wrapped analyzer lent, and a replayed Result is the
// autotracer's own, so both outlive the next launch.
func (a *Auto) carve(res *core.Result, shift int) *core.Result {
	out := a.results.New()
	out.Deps = a.deps.Clone(res.Deps)
	for i := range out.Deps {
		out.Deps[i] += shift
	}
	out.Plans = a.plans.Take(len(res.Plans))
	for ri, plan := range res.Plans {
		out.Plans[ri] = a.vis.Clone(plan)
		for i, v := range plan {
			out.Plans[ri][i].Task = shifted(v.Task, shift)
		}
	}
	return out
}

// shifted moves a producer by shift task IDs; the initial contents are
// no task and do not move.
func shifted(task, shift int) int {
	if task == core.InitialTask {
		return task
	}
	return task + shift
}

// sameShape is the exact structural check behind Signature's hash: a
// replayed launch must match the recorded one in name and, requirement
// by requirement, region, field and privilege (kind and reduction
// operator).
func sameShape(t, rec *core.Task) bool {
	if t.Name != rec.Name || len(t.Reqs) != len(rec.Reqs) {
		return false
	}
	for i, r := range t.Reqs {
		q := rec.Reqs[i]
		if r.Region.ID != q.Region.ID || r.Field != q.Field || !r.Priv.Same(q.Priv) {
			return false
		}
	}
	return true
}

// repeats reports whether tr, recorded one period after prev, holds
// prev's results with every task reference shifted by that period: deps
// element by element, and plans entry by entry in producer, requirement,
// privilege and points. Only then does replaying tr one period further on
// reproduce what analysis computed twice.
func (tr *trace) repeats(prev *trace) bool {
	shift := tr.start - prev.start
	for i, want := range prev.results {
		got := tr.results[i]
		if len(got.Deps) != len(want.Deps) || len(got.Plans) != len(want.Plans) {
			return false
		}
		for j, d := range want.Deps {
			if got.Deps[j] != d+shift {
				return false
			}
		}
		for ri, plan := range want.Plans {
			if len(got.Plans[ri]) != len(plan) {
				return false
			}
			for k, v := range plan {
				w := got.Plans[ri][k]
				if w.Task != shifted(v.Task, shift) || w.Req != v.Req || !w.Priv.Same(v.Priv) || !w.Pts.Equal(v.Pts) {
					return false
				}
			}
		}
	}
	return true
}

// Verify that Auto satisfies core.Analyzer.
var _ core.Analyzer = (*Auto)(nil)
