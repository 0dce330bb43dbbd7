package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span is one completed begin/end interval: one launch's analysis, or a
// serving-layer interval (HTTP request, queue wait). Times are
// nanoseconds on the buffer's clock — monotonic wall clock by default.
//
// Trace, ID, and Parent place the span in a request-scoped trace tree
// (see TraceContext); all three are zero for spans recorded outside any
// trace context, which keeps pre-existing exports byte-identical.
type Span struct {
	Name  string
	Cat   string
	Start int64
	End   int64

	Trace  string `json:",omitempty"`
	ID     SpanID `json:",omitempty"`
	Parent SpanID `json:",omitempty"`
}

// Context returns the span's identity as a TraceContext (for parenting
// further children under it); invalid when the span carries no trace.
func (s Span) Context() TraceContext {
	return TraceContext{TraceID: s.Trace, SpanID: s.ID}
}

// Buffer records spans into a fixed-capacity ring, dropping the oldest
// span when full, so instrumentation of every launch's analysis is bounded
// in memory no matter how long the run. A nil *Buffer is valid and
// records nothing: nil is the one off state. Safe for concurrent use.
type Buffer struct {
	ctx atomic.Pointer[TraceContext] // current parent for Begin; nil = none
	now func() int64                 // immutable after construction

	mu      sync.Mutex
	ring    []Span // guarded by mu
	head    int    // guarded by mu; index of the oldest span when full
	dropped int64  // guarded by mu
}

// NewBuffer creates a buffer holding at most capacity spans, timestamped
// with the monotonic wall clock.
func NewBuffer(capacity int) *Buffer {
	base := time.Now()
	return NewBufferClock(capacity, func() int64 { return time.Since(base).Nanoseconds() })
}

// NewBufferClock is NewBuffer with a caller-supplied clock; tests use a
// deterministic clock to pin exported output.
func NewBufferClock(capacity int, now func() int64) *Buffer {
	if capacity < 1 {
		capacity = 1
	}
	return &Buffer{now: now, ring: make([]Span, 0, capacity)}
}

// Now returns the current time on the buffer's clock (0 on a nil buffer)
// so externally timed intervals (queue waits) land on the same axis as
// recorded spans.
func (b *Buffer) Now() int64 {
	if b == nil {
		return 0
	}
	return b.now()
}

// SetContext installs tc as the parent of every span Begin records until
// the next SetContext. An invalid tc clears the parent. The session
// worker brackets each job with SetContext, so the analysis span of each
// launch in the job becomes a child of the job's HTTP request span
// without the analyzers knowing about HTTP at all.
func (b *Buffer) SetContext(tc TraceContext) {
	if b == nil {
		return
	}
	if !tc.Valid() {
		b.ctx.Store(nil)
		return
	}
	b.ctx.Store(&tc)
}

// Context returns the currently installed parent context (invalid when
// none is set).
func (b *Buffer) Context() TraceContext {
	if b == nil {
		return TraceContext{}
	}
	if p := b.ctx.Load(); p != nil {
		return *p
	}
	return TraceContext{}
}

// Active is an in-flight span returned by Begin; call End exactly once.
// The zero Active (from a nil buffer) is inert.
type Active struct {
	buf    *Buffer
	name   string
	cat    string
	trace  string
	id     SpanID
	parent SpanID
	start  int64
}

// Begin starts a span. On a nil buffer it returns an inert
// Active whose End is a no-op, so call sites need no guards. When a
// parent context is installed (SetContext), the span joins its trace;
// Begin and End then still allocate nothing.
func (b *Buffer) Begin(name, cat string) Active {
	if b == nil {
		return Active{}
	}
	a := Active{buf: b, name: name, cat: cat, start: b.now()}
	if p := b.ctx.Load(); p != nil {
		a.trace, a.parent, a.id = p.TraceID, p.SpanID, NewSpanID()
	}
	return a
}

// BeginSpan starts a span explicitly parented under parent, returning
// the in-flight span and the context identifying it (for parenting
// further children). An invalid parent starts a fresh root trace. On a
// nil buffer the span is inert but the returned context is
// still usable — propagation survives even where recording is off.
func (b *Buffer) BeginSpan(name, cat string, parent TraceContext) (Active, TraceContext) {
	if b == nil {
		if !parent.Valid() {
			parent = NewTraceContext()
		}
		return Active{}, parent.Child()
	}
	a := Active{buf: b, name: name, cat: cat, start: b.now()}
	if parent.Valid() {
		a.trace, a.parent, a.id = parent.TraceID, parent.SpanID, NewSpanID()
	} else {
		a.trace, a.id = NewTraceID(), NewSpanID()
	}
	return a, TraceContext{TraceID: a.trace, SpanID: a.id}
}

// Record appends a completed span with explicit timestamps (on the
// buffer's clock, see Now) parented under parent, returning the recorded
// span's context. Used for intervals measured outside the buffer, like
// the time a job spent queued before its worker picked it up.
func (b *Buffer) Record(name, cat string, start, end int64, parent TraceContext) TraceContext {
	if b == nil {
		return parent
	}
	s := Span{Name: name, Cat: cat, Start: start, End: end}
	if parent.Valid() {
		s.Trace, s.Parent, s.ID = parent.TraceID, parent.SpanID, NewSpanID()
	} else {
		s.Trace, s.ID = NewTraceID(), NewSpanID()
	}
	b.push(s)
	return s.Context()
}

// End completes the span and records it.
func (a Active) End() {
	if a.buf == nil {
		return
	}
	a.buf.push(Span{
		Name: a.name, Cat: a.cat, Start: a.start, End: a.buf.now(),
		Trace: a.trace, ID: a.id, Parent: a.parent,
	})
}

// Context returns the identity of an in-flight span begun with BeginSpan
// or under an installed parent context (invalid for inert or untraced
// spans).
func (a Active) Context() TraceContext {
	return TraceContext{TraceID: a.trace, SpanID: a.id}
}

// push appends s, overwriting the oldest span when the ring is full.
func (b *Buffer) push(s Span) {
	b.mu.Lock()
	if len(b.ring) < cap(b.ring) {
		b.ring = append(b.ring, s)
	} else {
		b.ring[b.head] = s
		b.head = (b.head + 1) % len(b.ring)
		b.dropped++
	}
	b.mu.Unlock()
}

// Snapshot returns the recorded spans, oldest first. A nil buffer yields
// nil.
func (b *Buffer) Snapshot() []Span {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Span, 0, len(b.ring))
	out = append(out, b.ring[b.head:]...)
	out = append(out, b.ring[:b.head]...)
	return out
}

// Dropped returns how many spans were overwritten by newer ones.
func (b *Buffer) Dropped() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// Len returns the number of spans currently held.
func (b *Buffer) Len() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.ring)
}
