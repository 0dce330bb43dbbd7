package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"visibility/internal/obs"
)

// exportSteps caps how many steps per tracer keep their raw spans for the
// Perfetto file. Aggregates (count, total, self, samples) cover every
// step; the cap only keeps a 1000-step leg from writing a 50 MB trace.
const exportSteps = 64

// rawSpan is one retained span, ready for export.
type rawSpan struct {
	name       string
	id, parent int // parent is 0 for a step root
	step       int
	start, end int64 // ns since the run's base time
}

// spanStat aggregates every span of one name.
type spanStat struct {
	count int64
	total int64     // ns
	self  int64     // ns: total minus the time covered by child spans
	durs  []float64 // ns, one per span, for percentiles
}

type frame struct {
	name     string
	id       int
	start    int64
	children int64 // ns covered by already-ended child spans
}

// tracer records the benchmark's own spans around calls into the program.
// It is driven by one goroutine (one per tenant on the service path), so
// the open spans form a stack: a span's parent is the one below it, and
// its self time is its duration minus what its children covered. A nil
// tracer records nothing, so the same loop runs traced and untraced.
type tracer struct {
	base  time.Time
	stack []frame
	stats map[string]*spanStat
	raw   []rawSpan
	step  int
	next  int

	// stepCovered and stepTotal sum, over step roots, the time covered by
	// children and the step durations; steps counts the roots and
	// wellCovered those whose children cover at least coverGoal of them.
	stepCovered, stepTotal int64
	steps, wellCovered     int
}

// coverGoal is the share of a step span its children should account for.
const coverGoal = 0.95

func newTracer(base time.Time) *tracer {
	return &tracer{base: base, stats: make(map[string]*spanStat)}
}

// beginStep opens the root span of step i; every span until the matching
// end shares that step id.
func (t *tracer) beginStep(i int) {
	if t == nil {
		return
	}
	t.step = i
	t.begin("step")
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	t.next++
	t.stack = append(t.stack, frame{name: name, id: t.next, start: int64(time.Since(t.base))})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	now := int64(time.Since(t.base))
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur := now - f.start
	st := t.stats[f.name]
	if st == nil {
		st = &spanStat{}
		t.stats[f.name] = st
	}
	st.count++
	st.total += dur
	st.self += dur - f.children
	st.durs = append(st.durs, float64(dur))
	parent := 0
	if n := len(t.stack); n > 0 {
		t.stack[n-1].children += dur
		parent = t.stack[n-1].id
	} else if f.name == "step" && dur > 0 {
		t.stepCovered += f.children
		t.stepTotal += dur
		t.steps++
		if float64(f.children) >= coverGoal*float64(dur) {
			t.wellCovered++
		}
	}
	if t.step < exportSteps {
		t.raw = append(t.raw, rawSpan{name: f.name, id: f.id, parent: parent, step: t.step, start: f.start, end: now})
	}
}

// scale multiplies every aggregated duration by f: the steal correction
// of the leg the tracer recorded. Retained raw spans keep their wall-clock
// timestamps, so the exported trace shows what really happened.
func (t *tracer) scale(f float64) {
	if t == nil || f == 1 {
		return
	}
	for _, st := range t.stats {
		st.total = int64(float64(st.total) * f)
		st.self = int64(float64(st.self) * f)
		for i := range st.durs {
			st.durs[i] *= f
		}
	}
}

// stat returns the aggregate for name (zero when no such span ended).
func (t *tracer) stat(name string) spanStat {
	if t == nil || t.stats[name] == nil {
		return spanStat{}
	}
	return *t.stats[name]
}

// merge folds o's aggregates into t (raw spans stay with their tracer).
func (t *tracer) merge(o *tracer) {
	for name, s := range o.stats {
		st := t.stats[name]
		if st == nil {
			st = &spanStat{}
			t.stats[name] = st
		}
		st.count += s.count
		st.total += s.total
		st.self += s.self
		st.durs = append(st.durs, s.durs...)
	}
	t.stepCovered += o.stepCovered
	t.stepTotal += o.stepTotal
	t.steps += o.steps
	t.wellCovered += o.wellCovered
}

// traceProc is one process track of the exported file: a leg, with one
// thread per tracer that ran in it.
type traceProc struct {
	name    string
	threads []*tracer
}

// writeTrace writes the retained spans as Chrome trace-event JSON, one
// process per leg and one thread per tracer. Every event carries its step
// id, span id and parent id, so a consumer can rebuild the tree.
func writeTrace(path string, procs []traceProc) error {
	tw := obs.NewTraceWriter()
	for pid, p := range procs {
		tw.ProcessName(pid, p.name)
		for tid, t := range p.threads {
			tw.ThreadName(pid, tid, fmt.Sprintf("driver %d", tid))
			for _, s := range t.raw {
				args := map[string]any{"step": s.step, "span": s.id}
				if s.parent != 0 {
					args["parent"] = s.parent
				}
				tw.Duration(pid, tid, s.name, "visperf", s.start, s.end-s.start, args)
			}
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tw.Write(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
