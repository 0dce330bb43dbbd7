// Package recorder is the always-on flight recorder: a bounded ring
// journaling coarse runtime events (task launches, admission rejects,
// worker job boundaries, fault injections, trace outcomes) so that when
// something goes wrong — a latched session failure, a SIGQUIT, a hung
// drain — the last window of runtime activity is available for forensics
// without having had tracing turned on in advance.
//
// The design mirrors obs.Buffer: a nil *Recorder is valid and records
// nothing after one pointer test, and Log on a non-nil one is a
// mutex-protected store of one fixed-size struct. Events are deliberately
// tiny (a timestamp, a kind, two integers and at most one constant
// string, held as an index into the recorder's table of the strings it
// has seen, so the ring holds no pointers for the collector to scan) —
// journaling must stay cheap enough to leave on in production, which
// BenchmarkObsOverhead measures on the launch path.
//
// The window has one rendering, text: a first line carrying the dropped
// count, then one line per event, oldest first,
//
//	dropped=<n>
//	<t> <kind> <name>=<value>…
//
// with each kind's argument names taken from formats. Dump writes these
// lines; the server serves and returns the same ones. Identical windows
// render byte-identical text, so post-mortem artifacts diff cleanly.
package recorder

import (
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Kind classifies one journaled event; formats names its arguments.
type Kind uint8

// Event kinds.
const (
	KindTaskLaunch Kind = iota
	KindAdmitReject
	KindJobStart
	KindJobDone
	KindWorkerFail
	KindSessionOpen
	KindSessionClose
	KindFaultInject
	KindTraceCommit
	KindTraceReplay
	KindTraceInvalidate
	KindExplainQuery
	KindCritPath
)

// formats is each kind's line: its name, then its arguments in order,
// each ending in the Event field it prints (A, B or S).
var formats = [...]string{
	KindTaskLaunch:      "task_launch task=A reqs=B",
	KindAdmitReject:     "admit_reject seq=A reason=S", // global_cap, session_queue or session_closing
	KindJobStart:        "job_start seq=A route=S",     // the route's name in the server's handle table
	KindJobDone:         "job_done seq=A",              // a job that latched a failure ends in worker_fail instead
	KindWorkerFail:      "worker_fail seq=A",
	KindSessionOpen:     "session_open seq=A",
	KindSessionClose:    "session_close seq=A",
	KindFaultInject:     "fault_inject site=S arg=A",
	KindTraceCommit:     "trace_commit trace=A period=B",  // period: launches per instance
	KindTraceReplay:     "trace_replay trace=A period=B",  // one replayed instance completed
	KindTraceInvalidate: "trace_invalidate trace=A pos=B", // pos: launches into the instance at abort
	KindExplainQuery:    "explain_query task=A edges=B",
	KindCritPath:        "crit_path tasks=A makespan=B", // makespan in virtual units, rounded
}

// String returns the kind's snake_case name.
func (k Kind) String() string {
	name, _, _ := strings.Cut(formats[k], " ")
	return name
}

// Event is one journaled record: a nanosecond timestamp on the
// recorder's clock, a kind, and the kind's arguments.
type Event struct {
	T    int64
	Kind Kind
	s    uint32 // the string argument, an index into Recorder.strs
	A, B int64
}

// appendLine appends e's text line, without a newline; strs is the
// recorder's string table.
func (e Event) appendLine(b []byte, strs []string) []byte {
	b = strconv.AppendInt(b, e.T, 10)
	name, args, _ := strings.Cut(formats[e.Kind], " ")
	b = append(append(b, ' '), name...)
	for _, arg := range strings.Fields(args) {
		b = append(append(b, ' '), arg[:len(arg)-1]...)
		switch arg[len(arg)-1] {
		case 'A':
			b = strconv.AppendInt(b, e.A, 10)
		case 'B':
			b = strconv.AppendInt(b, e.B, 10)
		default:
			b = append(b, strs[e.s]...)
		}
	}
	return b
}

// Recorder is the bounded drop-oldest event ring. A nil *Recorder is
// valid and records nothing. Safe for concurrent use.
type Recorder struct {
	now func() int64 // immutable after construction

	mu      sync.Mutex
	ring    []Event           // guarded by mu
	head    int               // guarded by mu; index of the oldest event when full
	dropped int64             // guarded by mu
	strs    []string          // guarded by mu; append-only, strs[0] is ""
	ids     map[string]uint32 // guarded by mu; the index of each string in strs
}

// New creates a recorder holding at most capacity events, timestamped
// with the monotonic wall clock.
func New(capacity int) *Recorder {
	base := time.Now()
	return NewClock(capacity, func() int64 { return time.Since(base).Nanoseconds() })
}

// NewClock is New with a caller-supplied clock; the serving layer passes
// the clock its span buffers use so journal timestamps and span
// timestamps share one axis, and tests pass a deterministic clock.
func NewClock(capacity int, now func() int64) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{now: now, ring: make([]Event, 0, capacity), strs: []string{""}, ids: map[string]uint32{}}
}

// Log journals one event with two integer arguments, overwriting the
// oldest when the ring is full. On a nil recorder it is one pointer test.
func (r *Recorder) Log(k Kind, a, b int64) { r.put(k, a, b, "") }

// LogS journals one event with an integer and a string argument. The
// string must be a constant: the recorder keeps each one it sees.
func (r *Recorder) LogS(k Kind, a int64, s string) { r.put(k, a, 0, s) }

func (r *Recorder) put(k Kind, a, b int64, s string) {
	if r == nil {
		return
	}
	e := Event{T: r.now(), Kind: k, A: a, B: b}
	r.mu.Lock()
	if s != "" {
		id, ok := r.ids[s]
		if !ok {
			id = uint32(len(r.strs))
			r.strs = append(r.strs, s)
			r.ids[s] = id
		}
		e.s = id
	}
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, e)
	} else {
		r.ring[r.head] = e
		r.head = (r.head + 1) % len(r.ring)
		r.dropped++
	}
	r.mu.Unlock()
}

// window returns the journaled events, oldest first, the dropped count
// and the string table, read together.
func (r *Recorder) window() ([]Event, int64, []string) {
	if r == nil {
		return nil, 0, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.ring))
	out = append(out, r.ring[r.head:]...)
	return append(out, r.ring[:r.head]...), r.dropped, r.strs
}

// Snapshot returns the journaled events, oldest first (nil when the
// recorder is nil).
func (r *Recorder) Snapshot() []Event {
	events, _, _ := r.window()
	return events
}

// Dropped returns how many events were overwritten by newer ones.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Len returns the number of events currently held.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ring)
}

// Lines renders the dropped count and the newest n events, oldest first,
// one text line each.
func (r *Recorder) Lines(n int) []string {
	events, dropped, strs := r.window()
	events = events[max(0, len(events)-n):]
	out := make([]string, 0, 1+len(events))
	out = append(out, "dropped="+strconv.FormatInt(dropped, 10))
	var b []byte
	for _, e := range events {
		b = e.appendLine(b[:0], strs)
		out = append(out, string(b))
	}
	return out
}

// Dump writes the whole window to w, one line per event after the
// dropped count. The same window always produces the same bytes.
func (r *Recorder) Dump(w io.Writer) error {
	_, err := io.WriteString(w, strings.Join(r.Lines(math.MaxInt), "\n")+"\n")
	return err
}
