package recorder

import (
	"bytes"
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

func TestNilAndDisabledAreInert(t *testing.T) {
	var nilRec *Recorder
	nilRec.Log(KindEqSplit, 1, 2) // must not panic
	nilRec.SetEnabled(true)
	if nilRec.Snapshot() != nil || nilRec.Len() != 0 || nilRec.Dropped() != 0 || nilRec.Now() != 0 {
		t.Error("nil recorder not inert")
	}

	r := NewClock(4, tick())
	r.SetEnabled(false)
	r.Log(KindEqSplit, 1, 2)
	if r.Len() != 0 {
		t.Errorf("disabled recorder journaled %d events", r.Len())
	}
	r.SetEnabled(true)
	r.Log(KindEqSplit, 1, 2)
	if r.Len() != 1 {
		t.Errorf("re-enabled recorder has %d events, want 1", r.Len())
	}
}

func TestKindString(t *testing.T) {
	if got := KindEqCoalesce.String(); got != "eq_coalesce" {
		t.Errorf("KindEqCoalesce = %q", got)
	}
	if got := Kind(200).String(); got != "kind_200" {
		t.Errorf("unknown kind = %q", got)
	}
	if len(kindNames) != int(KindCritPath)+1 {
		t.Errorf("kindNames has %d entries for %d kinds", len(kindNames), KindCritPath+1)
	}
	if got := KindTraceReplay.String(); got != "trace_replay" {
		t.Errorf("KindTraceReplay = %q", got)
	}
}

// TestKindPin freezes the event-kind numbering and names: kinds are part
// of the VISFREC1 binary dump format, so renumbering or renaming an
// existing kind breaks old dumps. New kinds must append at the end.
func TestKindPin(t *testing.T) {
	pins := []struct {
		kind Kind
		num  uint8
		name string
	}{
		{KindNone, 0, "none"},
		{KindTaskLaunch, 1, "task_launch"},
		{KindEqSplit, 2, "eq_split"},
		{KindEqCoalesce, 3, "eq_coalesce"},
		{Kind(4), 4, "cache_hit"},  // retired, still decodes
		{Kind(5), 5, "cache_miss"}, // retired, still decodes
		{KindAdmitReject, 6, "admit_reject"},
		{KindTraceInvalidate, 15, "trace_invalidate"},
		{Kind(16), 16, "reason_capture"}, // retired, still decodes
		{KindExplainQuery, 17, "explain_query"},
		{KindCritPath, 18, "crit_path"},
	}
	for _, p := range pins {
		if uint8(p.kind) != p.num {
			t.Errorf("kind %s renumbered: got %d, want %d (append-only format)", p.name, p.kind, p.num)
		}
		if got := p.kind.String(); got != p.name {
			t.Errorf("kind %d renamed: got %q, want %q", p.num, got, p.name)
		}
	}
}

// TestConcurrentLog hammers a small ring from many writers under -race:
// the drop-oldest accounting must balance and every surviving event must
// be internally consistent (no torn A/B pairs).
func TestConcurrentLog(t *testing.T) {
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
				r.Log(KindEqSplit, int64(i), -int64(i))
				if i%100 == 0 {
					_ = r.Snapshot()
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
		if e.Kind != KindEqSplit || e.B != -e.A {
			t.Fatalf("event %d torn: %+v", i, e)
		}
	}
}

func TestDumpDeterminismAndRoundTrip(t *testing.T) {
	r := NewClock(4, tick())
	for i := 0; i < 7; i++ {
		r.Log(Kind(1+i%3), int64(i), int64(100+i))
	}
	var d1, d2 bytes.Buffer
	if err := r.Dump(&d1); err != nil {
		t.Fatal(err)
	}
	if err := r.Dump(&d2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1.Bytes(), d2.Bytes()) {
		t.Error("two dumps of the same window differ")
	}

	events, dropped, err := ReadDump(&d1)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 3 {
		t.Errorf("dump dropped = %d, want 3", dropped)
	}
	want := r.Snapshot()
	if len(events) != len(want) {
		t.Fatalf("round trip has %d events, want %d", len(events), len(want))
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("round-trip event %d = %+v, want %+v", i, events[i], want[i])
		}
	}
}

func TestReadDumpRejectsGarbage(t *testing.T) {
	if _, _, err := ReadDump(strings.NewReader("not a dump at all")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, _, err := ReadDump(strings.NewReader("VIS")); err == nil {
		t.Error("truncated magic accepted")
	}
	// Valid magic + header claiming events, then truncated body.
	var buf bytes.Buffer
	r := NewClock(2, tick())
	r.Log(KindJobStart, 1, 0)
	if err := r.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, _, err := ReadDump(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated body accepted")
	}
}
