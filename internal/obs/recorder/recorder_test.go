package recorder

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"
)

// tick returns a deterministic strictly increasing clock.
func tick() func() int64 {
	var t int64
	var mu sync.Mutex
	return func() int64 {
		mu.Lock()
		defer mu.Unlock()
		t++
		return t
	}
}

func TestDropOldestOrdering(t *testing.T) {
	const capacity = 8
	const total = 21
	r := NewClock(capacity, tick())
	for i := 0; i < total; i++ {
		r.Log(KindTaskLaunch, int64(i), 2*int64(i))
	}
	if r.Len() != capacity {
		t.Errorf("Len = %d, want %d", r.Len(), capacity)
	}
	if r.Dropped() != total-capacity {
		t.Errorf("Dropped = %d, want %d", r.Dropped(), total-capacity)
	}
	events := r.Snapshot()
	if len(events) != capacity {
		t.Fatalf("snapshot has %d events, want %d", len(events), capacity)
	}
	for i, e := range events {
		wantA := int64(total - capacity + i)
		if e.A != wantA || e.B != 2*wantA || e.Kind != KindTaskLaunch {
			t.Errorf("event %d = %+v, want A=%d B=%d", i, e, wantA, 2*wantA)
		}
		if i > 0 && e.T <= events[i-1].T {
			t.Errorf("timestamps not increasing oldest-first: %v then %v", events[i-1].T, e.T)
		}
	}
}

// TestNilAndDisabledAreInert checks the nil recorder, the one disabled
// state: it journals nothing and dumps an empty window.
func TestNilAndDisabledAreInert(t *testing.T) {
	var nilRec *Recorder
	nilRec.Log(KindTaskLaunch, 1, 2) // must not panic
	nilRec.LogS(KindJobStart, 1, "workloads")
	if nilRec.Snapshot() != nil || nilRec.Len() != 0 || nilRec.Dropped() != 0 {
		t.Error("nil recorder not inert")
	}
	var buf bytes.Buffer
	if err := nilRec.Dump(&buf); err != nil || buf.String() != "dropped=0\n" {
		t.Errorf("nil recorder dump = %q, %v; want an empty window", buf.String(), err)
	}
}

// TestKindString checks every kind has a format and String names it.
func TestKindString(t *testing.T) {
	if got := KindAdmitReject.String(); got != "admit_reject" {
		t.Errorf("KindAdmitReject = %q", got)
	}
	if got := KindTraceReplay.String(); got != "trace_replay" {
		t.Errorf("KindTraceReplay = %q", got)
	}
	for k, f := range formats {
		if f == "" {
			t.Errorf("kind %d has no format", k)
		}
	}
}

// TestKindPin pins every kind's line: its name and its argument names,
// the vocabulary dumps, /debug/recorder and the 409 body are read in.
func TestKindPin(t *testing.T) {
	pins := []struct {
		kind Kind
		a, b int64
		s    string
		want string
	}{
		{KindTaskLaunch, 7, 2, "", "1 task_launch task=7 reqs=2"},
		{KindAdmitReject, 1, 0, "global_cap", "2 admit_reject seq=1 reason=global_cap"},
		{KindJobStart, 1, 0, "workloads", "3 job_start seq=1 route=workloads"},
		{KindJobDone, 1, 0, "", "4 job_done seq=1"},
		{KindWorkerFail, 1, 0, "", "5 worker_fail seq=1"},
		{KindSessionOpen, 1, 0, "", "6 session_open seq=1"},
		{KindSessionClose, 1, 0, "", "7 session_close seq=1"},
		{KindFaultInject, -3, 0, "server.worker.panic", "8 fault_inject site=server.worker.panic arg=-3"},
		{KindTraceCommit, 1, 3, "", "9 trace_commit trace=1 period=3"},
		{KindTraceReplay, 1, 3, "", "10 trace_replay trace=1 period=3"},
		{KindTraceInvalidate, 1, 2, "", "11 trace_invalidate trace=1 pos=2"},
		{KindExplainQuery, 5, 2, "", "12 explain_query task=5 edges=2"},
		{KindCritPath, 4, 90, "", "13 crit_path tasks=4 makespan=90"},
		{KindJobStart, 2, 0, "graph", "14 job_start seq=2 route=graph"},
		{KindFaultInject, 2, 0, "server.worker.panic", "15 fault_inject site=server.worker.panic arg=2"},
	}
	r := NewClock(len(pins), tick())
	for _, p := range pins {
		if p.s != "" {
			r.LogS(p.kind, p.a, p.s)
		} else {
			r.Log(p.kind, p.a, p.b)
		}
	}
	for i, got := range r.Lines(len(pins))[1:] {
		if got != pins[i].want {
			t.Errorf("%s renders %q, want %q", pins[i].kind, got, pins[i].want)
		}
	}
	pinned := map[Kind]bool{}
	for _, p := range pins {
		pinned[p.kind] = true
	}
	if len(pinned) != len(formats) {
		t.Errorf("%d of %d kinds pinned", len(pinned), len(formats))
	}
}

// TestConcurrentLog hammers a small ring from many writers and readers
// under -race: the drop-oldest accounting must balance and every
// surviving event must be internally consistent (no torn A/B pairs, no
// string the table does not hold).
func TestConcurrentLog(t *testing.T) {
	routes := []string{"workloads", "snapshot", "graph"}
	const capacity = 32
	const goroutines = 8
	const perG = 1000
	r := NewClock(capacity, tick())
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if g%2 == 0 {
					r.Log(KindTaskLaunch, int64(i), -int64(i))
				} else {
					r.LogS(KindJobStart, int64(i), routes[(g+i)%len(routes)])
				}
				if i%100 == 0 {
					_ = r.Lines(capacity)
					_ = r.Dropped()
				}
			}
		}()
	}
	wg.Wait()
	if r.Len() != capacity {
		t.Errorf("Len = %d, want full ring of %d", r.Len(), capacity)
	}
	if got := r.Dropped() + int64(r.Len()); got != goroutines*perG {
		t.Errorf("recorded+dropped = %d, want %d", got, goroutines*perG)
	}
	for i, e := range r.Snapshot() {
		if e.Kind == KindTaskLaunch && e.B != -e.A {
			t.Fatalf("event %d torn: %+v", i, e)
		}
	}
	for _, l := range r.Lines(capacity)[1:] {
		if _, route, ok := strings.Cut(l, " route="); ok && !slices.Contains(routes, route) {
			t.Fatalf("line %q names no route that was logged", l)
		}
	}
}

// TestDumpDeterminismAndRoundTrip checks the same window dumps the same
// bytes, and that logged events come back out of the dump as the
// window's lines: the dropped count, then the surviving events oldest
// first.
func TestDumpDeterminismAndRoundTrip(t *testing.T) {
	r := NewClock(3, tick())
	for i := int64(0); i < 5; i++ {
		r.Log(KindTaskLaunch, i, 1)
	}
	r.LogS(KindFaultInject, 9, "trace.invalidate")
	var d1, d2 bytes.Buffer
	if err := r.Dump(&d1); err != nil {
		t.Fatal(err)
	}
	if err := r.Dump(&d2); err != nil {
		t.Fatal(err)
	}
	want := "dropped=3\n4 task_launch task=3 reqs=1\n5 task_launch task=4 reqs=1\n6 fault_inject site=trace.invalidate arg=9\n"
	if d1.String() != want || d2.String() != want {
		t.Errorf("dumps = %q and %q, want %q", d1.String(), d2.String(), want)
	}
	if got := strings.Join(r.Lines(1), "\n"); got != "dropped=3\n6 fault_inject site=trace.invalidate arg=9" {
		t.Errorf("Lines(1) = %q, want the dropped count and the newest event", got)
	}
}
