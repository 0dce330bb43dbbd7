// Package recorder is the always-on flight recorder: a bounded binary
// ring journaling coarse runtime events (task launches, equivalence-set
// splits and coalesces, admission rejects, worker job boundaries) so that
// when something goes wrong — a latched session failure, a SIGQUIT, a hung
// drain — the last window of runtime activity is available for forensics
// without having had tracing turned on in advance.
//
// The design mirrors obs.Buffer: a nil *Recorder is valid and records
// nothing after one pointer test, and Log on a non-nil one is a
// mutex-protected store of one fixed-size struct. Events are deliberately
// tiny (a timestamp, a kind byte, two integer arguments) — journaling
// must stay cheap enough to leave on in production, which
// BenchmarkObsOverhead measures on the analysis hot path.
//
// Dump serializes the window to a compact little-endian binary format
// with a magic header; ReadDump parses it back. Identical windows
// produce byte-identical dumps, so post-mortem artifacts diff cleanly.
package recorder

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"
)

// Kind classifies one journaled event. The A/B argument meaning is
// per-kind, documented on each constant.
type Kind uint8

// Event kinds. New kinds append at the end: the binary dump format
// stores the raw byte, so renumbering breaks old dumps. A kind nothing
// logs any more keeps its byte and its name, so old dumps still decode.
const (
	KindNone            Kind = iota
	KindTaskLaunch           // A=task ID, B=requirement count
	KindEqSplit              // A=fragments created, B=history entries copied
	KindEqCoalesce           // A=equivalence sets pruned by a dominating write
	_                        // 4 "cache_hit": retired with the scheduler's instance cache
	_                        // 5 "cache_miss": retired with it
	KindAdmitReject          // A=session seq (0=session-less), B=1 global cap, 2 session queue, 3 session cap
	KindJobStart             // A=session seq
	KindJobDone              // A=session seq
	KindWorkerFail           // A=session seq; the session latched a failure
	KindSessionOpen          // A=session seq
	KindSessionClose         // A=session seq
	KindFaultInject          // A=fault site catalog index (fault.SiteAt), B=site-specific argument
	KindTraceCommit          // A=trace id, B=period (launches per instance)
	KindTraceReplay          // A=trace id, B=period; one replayed instance completed
	KindTraceInvalidate      // A=trace id, B=position in the instance at abort
	_                        // 16 "reason_capture": retired; edge reasons are derived on demand
	KindExplainQuery         // A=queried task ID, B=edges explained
	KindCritPath             // A=critical-path length (tasks), B=makespan (virtual units, rounded)
)

var kindNames = [...]string{
	"none", "task_launch", "eq_split", "eq_coalesce", "cache_hit",
	"cache_miss", "admit_reject", "job_start", "job_done", "worker_fail",
	"session_open", "session_close", "fault_inject",
	"trace_commit", "trace_replay", "trace_invalidate",
	"reason_capture", "explain_query", "crit_path",
}

// String returns the kind's snake_case name ("kind_NN" for unknown
// bytes from a future dump).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind_%d", uint8(k))
}

// Event is one journaled record: a nanosecond timestamp on the
// recorder's clock, a kind, and two kind-specific arguments.
type Event struct {
	T    int64
	Kind Kind
	A, B int64
}

// Recorder is the bounded drop-oldest event ring. A nil *Recorder is
// valid and records nothing. Safe for concurrent use.
type Recorder struct {
	now func() int64 // immutable after construction

	mu      sync.Mutex
	ring    []Event // guarded by mu
	head    int     // guarded by mu; index of the oldest event when full
	dropped int64   // guarded by mu
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
	return &Recorder{now: now, ring: make([]Event, 0, capacity)}
}

// Now returns the current time on the recorder's clock (0 when nil).
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return r.now()
}

// Log journals one event, overwriting the oldest when the ring is full.
// On a nil recorder it is one pointer test.
func (r *Recorder) Log(k Kind, a, b int64) {
	if r == nil {
		return
	}
	e := Event{T: r.now(), Kind: k, A: a, B: b}
	r.mu.Lock()
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, e)
	} else {
		r.ring[r.head] = e
		r.head = (r.head + 1) % len(r.ring)
		r.dropped++
	}
	r.mu.Unlock()
}

// Snapshot returns the journaled events, oldest first (nil when the
// recorder is nil).
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.ring))
	out = append(out, r.ring[r.head:]...)
	out = append(out, r.ring[:r.head]...)
	return out
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

// --- binary dump --------------------------------------------------------

// dumpMagic identifies and versions the dump format: 8 magic bytes, then
// uint64 dropped, uint64 count, then count records of (int64 T, uint8
// Kind, int64 A, int64 B), all little-endian.
var dumpMagic = [8]byte{'V', 'I', 'S', 'F', 'R', 'E', 'C', '1'}

// Dump writes the current window (oldest first) to w in the binary dump
// format. The same window always produces the same bytes.
func (r *Recorder) Dump(w io.Writer) error {
	events := r.Snapshot()
	dropped := r.Dropped()
	if _, err := w.Write(dumpMagic[:]); err != nil {
		return err
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(dropped))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(events)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var rec [25]byte
	for _, e := range events {
		binary.LittleEndian.PutUint64(rec[0:], uint64(e.T))
		rec[8] = byte(e.Kind)
		binary.LittleEndian.PutUint64(rec[9:], uint64(e.A))
		binary.LittleEndian.PutUint64(rec[17:], uint64(e.B))
		if _, err := w.Write(rec[:]); err != nil {
			return err
		}
	}
	return nil
}

// ReadDump parses a binary dump back into its events (oldest first) and
// the dropped count at dump time.
func ReadDump(rd io.Reader) ([]Event, int64, error) {
	var magic [8]byte
	if _, err := io.ReadFull(rd, magic[:]); err != nil {
		return nil, 0, fmt.Errorf("recorder: reading dump magic: %w", err)
	}
	if magic != dumpMagic {
		return nil, 0, fmt.Errorf("recorder: bad dump magic %q", magic[:])
	}
	var hdr [16]byte
	if _, err := io.ReadFull(rd, hdr[:]); err != nil {
		return nil, 0, fmt.Errorf("recorder: reading dump header: %w", err)
	}
	dropped := int64(binary.LittleEndian.Uint64(hdr[0:]))
	count := binary.LittleEndian.Uint64(hdr[8:])
	const maxDumpEvents = 1 << 24 // refuse absurd counts from corrupt input
	if count > maxDumpEvents {
		return nil, 0, fmt.Errorf("recorder: dump claims %d events", count)
	}
	// count is the input's claim: reserve for it only up to a bound the
	// bytes have yet to back, and let append follow what actually arrives.
	events := make([]Event, 0, min(count, 4096))
	var rec [25]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(rd, rec[:]); err != nil {
			return nil, 0, fmt.Errorf("recorder: reading event %d of %d: %w", i, count, err)
		}
		events = append(events, Event{
			T:    int64(binary.LittleEndian.Uint64(rec[0:])),
			Kind: Kind(rec[8]),
			A:    int64(binary.LittleEndian.Uint64(rec[9:])),
			B:    int64(binary.LittleEndian.Uint64(rec[17:])),
		})
	}
	return events, dropped, nil
}
