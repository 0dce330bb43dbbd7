package autotrace

import (
	"visibility/internal/core"
	"visibility/internal/fault"
	"visibility/internal/obs"
	"visibility/internal/obs/recorder"
	"visibility/internal/trace"
)

// Detector tuning. The longest period searched for is the longest whose
// minReps copies fit the history the detector guarantees after bulk
// eviction (window/2): window / (2 * minReps) = 2048 launches, which covers
// circuit's 3-launch-per-node loop to 512 nodes.
const (
	window    = 8192 // launch hashes retained
	minPeriod = 1    // even a single-launch loop body replays profitably
	minReps   = 2    // consecutive copies seen before a candidate commits
)

// Stats summarizes the autotracer's outcomes alongside the underlying
// tracer's counters.
type Stats struct {
	// Candidates is how many repeating patterns the detector committed.
	Candidates int64
	// Instances is how many bracketed instances completed (recorded or
	// replayed).
	Instances int64
	// Aborts is how many bracketed instances diverged mid-instance and
	// fell back to direct analysis.
	Aborts int64
	// Trace carries the wrapped tracer's recorded/replayed/invalidation
	// launch counters.
	Trace trace.Stats
}

// Auto wraps an analyzer with automatic trace identification: every
// launch is hashed into the detector's window, a confirmed repeat is
// bracketed through an internal trace.Tracer, and any divergence falls
// back to direct analysis. Like the analyzers it wraps, an Auto is
// driven from a single goroutine at a time.
//
// The state machine has three modes. In watching, launches pass through
// the idle tracer while the detector looks for a repeating suffix; a
// commit arms a candidate. In armed, the tracer is idle between
// instances: a launch matching the candidate's first hash opens a
// bracket (Begin), anything else retires the candidate — a clean loop
// exit, no invalidation, because nothing memoized is pending. Inside a
// bracket, matching launches are forwarded to the tracer (recording on
// the first instance, replaying afterwards) and the bracket closes
// (End) after one full period, returning to armed so back-to-back
// instances stay contiguous — the tracer's replay precondition. A
// mid-instance mismatch (or a fired trace.invalidate fault) ends the
// bracket early: a replaying tracer invalidates and re-analyzes every
// replayed launch through the wrapped analyzer, a recording tracer
// finalizes a partial trace under an id that is never begun again, and
// the autotracer returns to watching with the window still current, so
// a surviving loop is re-detected and re-recorded within one period.
type Auto struct {
	// tr is the bracketed tracer; the autotracer is its only driver.
	//
	// confined to analyzer
	tr   *trace.Tracer
	opts core.Options
	name string

	// confined to analyzer
	det *detector

	// confined to analyzer
	mode int
	// cand is the committed candidate: the hash sequence one bracketed
	// instance must reproduce.
	//
	// confined to analyzer
	cand []uint64
	// confined to analyzer
	pos int // position inside the current bracketed instance
	// confined to analyzer
	traceID int // current trace id; bumped so aborted ids never replay
	// declined remembers the loops whose recorded trace could not replay
	// (trace.replayable), so the detector does not arm them again.
	//
	// confined to analyzer
	declined map[loopKey]bool

	candidates *obs.Counter
	instances  *obs.Counter
	aborts     *obs.Counter

	// traceStats reads the wrapped tracer's counters without touching
	// the analyzer-confined tracer reference: the counters live in the
	// metrics registry (atomics), so the runtime owner may read them
	// while the analyzer goroutine is mid-launch.
	traceStats func() trace.Stats
}

const (
	watching = iota
	armed
	inside
)

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
	tr := trace.New(an, opts)
	return &Auto{
		tr:         tr,
		opts:       opts,
		name:       an.Name() + "+autotrace",
		det:        newDetector(window, minPeriod, window/(2*minReps), minReps),
		declined:   make(map[loopKey]bool),
		candidates: opts.Metrics.NewCounter("autotrace/candidates"),
		instances:  opts.Metrics.NewCounter("autotrace/instances"),
		aborts:     opts.Metrics.NewCounter("autotrace/aborts"),
		traceStats: tr.TraceStats,
	}
}

// Name implements core.Analyzer.
func (a *Auto) Name() string { return a.name }

// Stats implements core.Analyzer (the wrapped analyzer's counters).
func (a *Auto) Stats() *core.Stats { return a.tr.Stats() }

// AutoStats returns the autotracer's outcome counters. Safe from the
// runtime owner: everything read here is registry atomics.
func (a *Auto) AutoStats() Stats {
	return Stats{
		Candidates: a.candidates.Load(),
		Instances:  a.instances.Load(),
		Aborts:     a.aborts.Load(),
		Trace:      a.traceStats(),
	}
}

// Replays returns the wrapped tracer's runs of replayed launches.
//
// confined to analyzer
func (a *Auto) Replays() []trace.Replay { return a.tr.Replays() }

// Analyze implements core.Analyzer.
//
// confined to analyzer
func (a *Auto) Analyze(t *core.Task) *core.Result {
	h := Signature(t)
	switch a.mode {
	case inside:
		return a.step(t, h)
	case armed:
		if h == a.cand[0] {
			a.tr.Begin(a.traceID)
			a.mode = inside
			a.pos = 0
			return a.step(t, h)
		}
		// The loop exited between instances: nothing is bracketed, so
		// retiring the candidate costs nothing.
		a.mode = watching
		a.cand = nil
		fallthrough
	default:
		res := a.tr.Analyze(t)
		a.observe(h)
		return res
	}
}

// step handles one launch inside a bracketed instance.
func (a *Auto) step(t *core.Task, h uint64) *core.Result {
	if h == a.cand[a.pos] {
		// The forced-invalidation fault site only fires where an
		// invalidation has teeth: mid-replay, with memoized launches
		// pending re-analysis.
		if !a.tr.Replaying() || !a.opts.Faults.Fire(fault.TraceInvalidate, int64(t.ID)) {
			res := a.tr.Analyze(t)
			// Bracketed launches still feed the window (without running
			// detection), so an abort resumes from current history.
			a.det.push(h)
			a.pos++
			if a.pos == len(a.cand) {
				a.endInstance()
			}
			return res
		}
	}
	a.abort()
	// The tracer is idle again: this re-analyzes directly (after the
	// invalidation drain caught the wrapped analyzer up).
	res := a.tr.Analyze(t)
	a.observe(h)
	return res
}

// endInstance closes a completed bracket and re-arms for the next
// contiguous instance — unless the instance recorded a trace that can
// never replay: bracketing that loop again would pay for a recording every
// iteration, so the candidate is retired and remembered as declined.
func (a *Auto) endInstance() {
	replayed := a.tr.Replaying()
	replayable := a.tr.End()
	a.instances.Inc()
	a.pos = 0
	if replayed {
		a.opts.Recorder.Log(recorder.KindTraceReplay, int64(a.traceID), int64(len(a.cand)))
	} else if !replayable {
		a.declined[keyOf(a.cand)] = true
		a.traceID++
		a.mode = watching
		a.cand = nil
		return
	}
	a.mode = armed
}

// abort ends a bracketed instance early. Ending a replaying tracer
// short invalidates the trace (the tracer re-analyzes every replayed
// launch); ending a recording tracer finalizes a partial trace, which
// stays harmless because its id is retired here and never begun again.
// The detector window was fed throughout, so a loop that merely hiccuped
// is re-detected and re-recorded within one period.
func (a *Auto) abort() {
	a.opts.Recorder.Log(recorder.KindTraceInvalidate, int64(a.traceID), int64(a.pos))
	a.aborts.Inc()
	a.tr.End()
	a.traceID++
	a.mode = watching
	a.cand = nil
	a.pos = 0
}

// observe feeds one launch hash to the detector and commits a candidate
// when the stream's suffix repeats.
func (a *Auto) observe(h uint64) {
	a.det.push(h)
	if a.mode != watching {
		return
	}
	if p := a.det.detect(); p > 0 && !a.declined[keyOf(a.det.tail(p))] {
		a.cand = a.det.candidate(p)
		a.candidates.Inc()
		a.opts.Recorder.Log(recorder.KindTraceCommit, int64(a.traceID), int64(p))
		a.mode = armed
		a.pos = 0
	}
}

// Verify that Auto satisfies core.Analyzer.
var _ core.Analyzer = (*Auto)(nil)
