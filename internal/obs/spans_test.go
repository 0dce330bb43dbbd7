package obs

import (
	"sync"
	"testing"
)

// fakeClock returns a deterministic strictly increasing clock.
func fakeClock() func() int64 {
	var t int64
	var mu sync.Mutex
	return func() int64 {
		mu.Lock()
		defer mu.Unlock()
		t += 100
		return t
	}
}

func TestBufferRecordsAndDropsOldest(t *testing.T) {
	b := NewBufferClock(3, fakeClock())
	for i, name := range []string{"a", "b", "c", "d", "e"} {
		sp := b.Begin(name, "test")
		sp.End()
		if want := i + 1; b.Len() != min(want, 3) {
			t.Errorf("after %d spans Len = %d", want, b.Len())
		}
	}
	got := b.Snapshot()
	if len(got) != 3 {
		t.Fatalf("snapshot has %d spans, want 3", len(got))
	}
	for i, want := range []string{"c", "d", "e"} {
		if got[i].Name != want {
			t.Errorf("snapshot[%d] = %q, want %q (oldest-first order)", i, got[i].Name, want)
		}
		if got[i].End <= got[i].Start {
			t.Errorf("span %q has End %d <= Start %d", got[i].Name, got[i].End, got[i].Start)
		}
	}
	if b.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2", b.Dropped())
	}
}

// TestNilAndDisabledBuffersAreInert checks the nil buffer, the one
// disabled state: every method is a no-op and Begin's span ends inertly.
func TestNilAndDisabledBuffersAreInert(t *testing.T) {
	var nilBuf *Buffer
	sp := nilBuf.Begin("x", "test")
	sp.End() // must not panic
	nilBuf.SetContext(NewTraceContext())
	if nilBuf.Snapshot() != nil || nilBuf.Len() != 0 || nilBuf.Dropped() != 0 || nilBuf.Context().Valid() {
		t.Error("nil buffer not inert")
	}
}

func TestBeginJoinsInstalledContext(t *testing.T) {
	b := NewBufferClock(8, fakeClock())
	b.Begin("orphan", "test").End()

	parent := NewTraceContext()
	b.SetContext(parent)
	b.Begin("child", "test").End()
	b.SetContext(TraceContext{})
	b.Begin("orphan2", "test").End()

	spans := b.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for _, i := range []int{0, 2} {
		if spans[i].Trace != "" || spans[i].ID != 0 || spans[i].Parent != 0 {
			t.Errorf("span %q outside context carries trace fields: %+v", spans[i].Name, spans[i])
		}
	}
	c := spans[1]
	if c.Trace != parent.TraceID || c.Parent != parent.SpanID {
		t.Errorf("child span not parented under installed context: %+v", c)
	}
	if c.ID == 0 || c.ID == parent.SpanID {
		t.Errorf("child span ID missing or reused: %v", c.ID)
	}
}

func TestBeginSpanAndRecordBuildTree(t *testing.T) {
	b := NewBufferClock(8, fakeClock())

	// Root span from no parent: fresh trace.
	root, rootCtx := b.BeginSpan("http.workloads", "http", TraceContext{})
	if !rootCtx.Valid() {
		t.Fatal("BeginSpan returned invalid context")
	}
	if got := root.Context(); got != rootCtx {
		t.Errorf("Active.Context = %+v, want %+v", got, rootCtx)
	}
	// Externally timed child (a queue wait).
	qCtx := b.Record("queue.wait", "queue", 10, 20, rootCtx)
	if qCtx.TraceID != rootCtx.TraceID || qCtx.SpanID == rootCtx.SpanID {
		t.Errorf("Record context wrong: %+v", qCtx)
	}
	// Explicit child of the root.
	child, childCtx := b.BeginSpan("analysis", "analysis", rootCtx)
	child.End()
	root.End()

	byID := make(map[SpanID]Span)
	for _, s := range b.Snapshot() {
		byID[s.ID] = s
	}
	if len(byID) != 3 {
		t.Fatalf("got %d distinct spans, want 3", len(byID))
	}
	q := byID[qCtx.SpanID]
	if q.Name != "queue.wait" || q.Start != 10 || q.End != 20 || q.Parent != rootCtx.SpanID {
		t.Errorf("queue span wrong: %+v", q)
	}
	c := byID[childCtx.SpanID]
	if c.Parent != rootCtx.SpanID || c.Trace != rootCtx.TraceID {
		t.Errorf("child span wrong: %+v", c)
	}
	r := byID[rootCtx.SpanID]
	if r.Parent != 0 || r.Trace != rootCtx.TraceID {
		t.Errorf("root span wrong: %+v", r)
	}
}

func TestBeginSpanPropagatesWhenDisabled(t *testing.T) {
	var nilBuf *Buffer
	sp, tc := nilBuf.BeginSpan("x", "test", TraceContext{})
	sp.End() // must not panic
	if !tc.Valid() {
		t.Error("nil buffer BeginSpan returned unusable context")
	}
	parent := NewTraceContext()
	_, tc2 := nilBuf.BeginSpan("y", "test", parent)
	if tc2.TraceID != parent.TraceID || tc2.SpanID == parent.SpanID {
		t.Errorf("nil buffer did not extend parent trace: %+v", tc2)
	}
	if got := nilBuf.Record("q", "queue", 1, 2, parent); got != parent {
		t.Errorf("nil buffer Record did not pass parent through: %+v", got)
	}
	if nilBuf.Now() != 0 {
		t.Error("nil buffer Now != 0")
	}
}

// TestRingOverflowConcurrentTraced hammers a small traced ring from many
// writers: the drop-oldest invariant must hold (len+dropped == pushes)
// and no span may come out with a corrupted parent/ID relationship —
// every surviving traced span links to the installed context and keeps a
// unique well-formed ID. Run under -race in CI.
func TestRingOverflowConcurrentTraced(t *testing.T) {
	const cap = 64
	const goroutines = 8
	const perG = 1000
	b := NewBuffer(cap)
	root := NewTraceContext()
	b.SetContext(root)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				sp := b.Begin("work", "test")
				sp.End()
				if i%100 == 0 {
					_ = b.Snapshot()
				}
			}
		}()
	}
	wg.Wait()

	if b.Len() != cap {
		t.Errorf("Len = %d, want full ring of %d", b.Len(), cap)
	}
	if got := b.Dropped() + int64(b.Len()); got != goroutines*perG {
		t.Errorf("recorded+dropped = %d, want %d", got, goroutines*perG)
	}
	ids := make(map[SpanID]bool)
	for _, s := range b.Snapshot() {
		if s.Trace != root.TraceID || s.Parent != root.SpanID {
			t.Fatalf("span with corrupted parentage: %+v", s)
		}
		if s.ID == 0 {
			t.Fatalf("span with no ID: %+v", s)
		}
		if ids[s.ID] {
			t.Fatalf("duplicate span ID %v survived overflow", s.ID)
		}
		ids[s.ID] = true
		if s.End < s.Start {
			t.Fatalf("span with End < Start: %+v", s)
		}
	}
}

func TestBufferConcurrency(t *testing.T) {
	b := NewBuffer(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				sp := b.Begin("work", "test")
				sp.End()
				if i%50 == 0 {
					_ = b.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if b.Len() != 128 {
		t.Errorf("Len = %d, want full ring of 128", b.Len())
	}
	if got := b.Dropped() + int64(b.Len()); got != 8*500 {
		t.Errorf("recorded+dropped = %d, want 4000", got)
	}
}

// TestBeginEndAllocations pins the analysis-span path under an installed
// request context: minting, recording and storing a span allocate nothing.
func TestBeginEndAllocations(t *testing.T) {
	b := NewBufferClock(64, fakeClock())
	b.SetContext(NewTraceContext())
	if allocs := testing.AllocsPerRun(100, func() { b.Begin("refine", "analysis").End() }); allocs != 0 {
		t.Fatalf("Begin/End under an installed context allocates %.1f times, want 0", allocs)
	}
}
