package cluster

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func approx(a, b Time) bool { return math.Abs(a-b) < 1e-12 }

func cfg(nodes int) Config { return Config{Nodes: nodes} }

func TestExecSerializesPerNode(t *testing.T) {
	m := New(cfg(2))
	a := m.Exec(0, "a", 1.0, 0)
	b := m.Exec(0, "b", 2.0, 0)
	c := m.Exec(1, "c", 0.5, 0)
	if !approx(a, 1.0) {
		t.Errorf("a done at %v", a)
	}
	if !approx(b, 3.0) {
		t.Errorf("b should queue behind a: %v", b)
	}
	if !approx(c, 0.5) {
		t.Errorf("c on another node should run immediately: %v", c)
	}
	if !approx(m.Makespan(), 3.0) {
		t.Errorf("makespan = %v", m.Makespan())
	}
	if !approx(m.NodeBusy(0), 3.0) || !approx(m.NodeBusy(1), 0.5) {
		t.Error("busy accounting wrong")
	}
}

func TestDependenciesDelayStart(t *testing.T) {
	m := New(cfg(2))
	a := m.Exec(0, "a", 1.0, 0)
	b := m.Exec(1, "b", 1.0, a) // waits for a
	if !approx(b, 2.0) {
		t.Errorf("b = %v, want 2.0", b)
	}
	// Backfill: independent work slots into the gap before b.
	c := m.Exec(1, "c", 1.0, 0)
	if !approx(c, 1.0) {
		t.Errorf("c = %v, want 1.0 (backfilled)", c)
	}
	// No gap remains: the next item queues after b.
	d := m.Exec(1, "d", 1.0, 0)
	if !approx(d, 3.0) {
		t.Errorf("d = %v, want 3.0", d)
	}
	// An item too large for the remaining gap goes to the end.
	e := m.Exec(1, "e", 0.5, a) // ready at 1.0, but [1,3] is busy
	if !approx(e, 3.5) {
		t.Errorf("e = %v, want 3.5", e)
	}
}

func TestBackfillSmallGap(t *testing.T) {
	m := New(cfg(1))
	if gate := m.Exec(0, "gate", 0, 0); gate != 0 {
		t.Fatalf("zero-duration gate = %v", gate)
	}
	long := m.Exec(0, "long", 2.0, 1.0)
	if !approx(long, 3.0) {
		t.Fatalf("long = %v", long)
	}
	small := m.Exec(0, "small", 0.5, 0)
	if !approx(small, 0.5) {
		t.Errorf("small = %v, want 0.5 (fits the [0,1) gap)", small)
	}
	second := m.Exec(0, "second", 0.75, 0)
	if !approx(second, 3.75) {
		t.Errorf("second = %v, want 3.75 (gap too small)", second)
	}
}

func TestMessageTiming(t *testing.T) {
	m := New(cfg(2))
	r := m.Message(0, 1, 1000, 0)
	// send overhead, wire latency + bytes/bandwidth, receive overhead
	want := sendOverhead + messageLatency + 1000/bandwidth + receiveOverhead
	if !approx(r, want) {
		t.Errorf("message delivered at %v, want %v", r, want)
	}
	msgs, bytes := m.Messages()
	if msgs != 1 || bytes != 1000 {
		t.Errorf("messages = %d, bytes = %d", msgs, bytes)
	}
}

func TestMessageToSelfSkipsWire(t *testing.T) {
	m := New(cfg(2))
	r := m.Message(1, 1, 1<<20, 0)
	want := sendOverhead + receiveOverhead
	if !approx(r, want) {
		t.Errorf("self message at %v, want %v", r, want)
	}
}

func TestReceiveQueuesOnBusyUtility(t *testing.T) {
	m := New(cfg(2))
	m.Util(1, "busy", 5.0, 0) // node 1's utility processor busy until t=5
	r := m.Message(0, 1, 0, 0)
	// Arrival is early, but receive processing waits for the utility
	// processor.
	if !approx(r, 5.0+receiveOverhead) {
		t.Errorf("receive completed at %v, want %v", r, 5.0+receiveOverhead)
	}
}

func TestExecAndUtilAreIndependent(t *testing.T) {
	// Kernel work on the execution processor does not delay analysis work
	// on the utility processor of the same node, and vice versa.
	m := New(cfg(1))
	m.Exec(0, "long", 10.0, 0)
	u := m.Util(0, "u", 1.0, 0)
	if !approx(u, 1.0) {
		t.Errorf("util work delayed by exec work: %v", u)
	}
	e := m.Exec(0, "e", 1.0, 0)
	if !approx(e, 11.0) {
		t.Errorf("exec should queue behind exec: %v", e)
	}
	if !approx(m.UtilBusy(0), 1.0) || !approx(m.NodeBusy(0), 11.0) {
		t.Error("busy accounting wrong")
	}
}

func TestSequentialBottleneckEmerges(t *testing.T) {
	// N independent work items funneled through node 0 take N times as
	// long as the same items spread over N nodes — the non-DCR funnel.
	n := 16
	funnel := New(cfg(n))
	spread := New(cfg(n))
	for i := 0; i < n; i++ {
		funnel.Exec(0, "item", 1.0, 0)
		spread.Exec(i, "item", 1.0, 0)
	}
	if !approx(funnel.Makespan(), float64(n)) {
		t.Errorf("funnel makespan = %v", funnel.Makespan())
	}
	if !approx(spread.Makespan(), 1.0) {
		t.Errorf("spread makespan = %v", spread.Makespan())
	}
}

func TestPanicsOnBadNode(t *testing.T) {
	m := New(cfg(1))
	for _, f := range []func(){
		func() { m.Exec(1, "bad", 1, 0) },
		func() { m.Exec(-1, "bad", 1, 0) },
		func() { m.Util(1, "bad", 1, 0) },
		func() { m.Message(0, 3, 0, 0) },
		func() { m.Message(3, 0, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestNewPanicsWithoutNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{Nodes: 0})
}

// TestPlacePropertyNoOverlap schedules many random items, each ready when
// the latest of a few earlier items completes, and verifies the reported
// completion times are consistent with a capacity-1 processor: total busy
// time never exceeds the makespan, the makespan is the latest completion,
// and every op takes exactly its duration after its dependences.
func TestPlacePropertyNoOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m := New(cfg(1))
	type op struct {
		end, dur Time
		deps     []Time
	}
	var ops []op
	var latest Time
	for i := 0; i < 300; i++ {
		var deps []Time
		var ready Time
		for k := 0; k < rng.Intn(3) && len(ops) > 0; k++ {
			d := ops[rng.Intn(len(ops))].end
			deps = append(deps, d)
			ready = max(ready, d)
		}
		dur := Time(rng.Intn(10)) / 10
		end := m.Exec(0, "op", dur, ready)
		ops = append(ops, op{end: end, dur: dur, deps: deps})
		latest = max(latest, end)
	}
	if m.Makespan() != latest {
		t.Fatalf("makespan %v, latest completion %v", m.Makespan(), latest)
	}
	if m.NodeBusy(0) > m.Makespan()+1e-9 {
		t.Fatalf("busy %v exceeds makespan %v on one processor", m.NodeBusy(0), m.Makespan())
	}
	for _, o := range ops {
		for _, d := range o.deps {
			if d > o.end-o.dur+1e-9 {
				t.Fatalf("op finished at %v but dep finished at %v (dur %v)", o.end, d, o.dur)
			}
		}
	}
}

// TestZeroDurationOpsAreFree verifies zero-duration work never occupies
// the processor.
func TestZeroDurationOpsAreFree(t *testing.T) {
	m := New(cfg(1))
	for i := 0; i < 100; i++ {
		m.Exec(0, "free", 0, 0)
	}
	if m.Makespan() != 0 || m.NodeBusy(0) != 0 {
		t.Errorf("zero-duration ops consumed time: makespan=%v busy=%v", m.Makespan(), m.NodeBusy(0))
	}
}

// TestBackToBackOpsAllocateNothing chains 3 × 4,096 ops on one processor,
// each ready when the previous completes, so every one coalesces into the
// processor's single busy interval. The machine keeps nothing per op
// outside the trace journal, so the chain allocates nothing; a per-op
// completion record allocates at least once per 4,096 ops.
func TestBackToBackOpsAllocateNothing(t *testing.T) {
	m := New(cfg(1))
	ready := m.Exec(0, "first", 1, 0) // allocates the interval list
	allocs := testing.AllocsPerRun(1, func() {
		for range 3 * 4096 {
			ready = m.Exec(0, "next", 1, ready)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations for 3 × 4,096 back-to-back ops, want 0", allocs)
	}
	if len(m.exec[0].intervals) != 1 || ready != m.Makespan() {
		t.Errorf("intervals %v, makespan %v, last completion %v: the chain did not coalesce", m.exec[0].intervals, m.Makespan(), ready)
	}
}

// refPlace is place with a bisection of the whole interval list in place
// of the search from the hint: the oracle TestPlaceMatchesBisection holds
// place to.
func refPlace(p *proc, ready, dur Time) Time {
	if dur <= 0 {
		return ready
	}
	lo, hi := 0, len(p.intervals)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.intervals[mid].end <= ready {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	t := ready
	i := lo
	for ; i < len(p.intervals); i++ {
		iv := p.intervals[i]
		if t+dur <= iv.start {
			break
		}
		if iv.end > t {
			t = iv.end
		}
	}
	p.busy += dur
	end := t + dur
	mergePrev := i > 0 && p.intervals[i-1].end == t
	mergeNext := i < len(p.intervals) && p.intervals[i].start == end
	switch {
	case mergePrev && mergeNext:
		p.intervals[i-1].end = p.intervals[i].end
		p.intervals = append(p.intervals[:i], p.intervals[i+1:]...)
	case mergePrev:
		p.intervals[i-1].end = end
	case mergeNext:
		p.intervals[i].start = t
	default:
		p.intervals = append(p.intervals, ival{})
		copy(p.intervals[i+1:], p.intervals[i:])
		p.intervals[i] = ival{start: t, end: end}
	}
	return t
}

// TestPlaceMatchesBisection drives place and the bisecting oracle with the
// same seeded streams and requires the same start time and the same whole
// interval list after every op. Times are multiples of 1/8, exact in
// float64, so a stream hits every case the search and the coalescing
// distinguish: backfills from ready 0, ready anywhere in the history or
// inside an old gap, zero durations, and items that exactly touch the
// interval to their left, to their right, or both.
func TestPlaceMatchesBisection(t *testing.T) {
	const seeds, ops = 200, 4000
	var touches [4]int // neither, left, right, both
	maxIvs := 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got, want proc
		tick := func(n int) Time { return Time(rng.Intn(n)) / 8 }
		for op := 0; op < ops; op++ {
			ivs := got.intervals // the list before the op, until got.place
			// By default spread items over a span wider than their total
			// duration, so the list grows to hundreds of intervals.
			ready, dur := tick(8*ops), tick(8)
			if k := len(ivs); k > 0 {
				r := rng.Intn(k)
				iv, gap := ivs[r], Time(0) // gap: the free time after iv, before the next interval
				if r+1 < k {
					gap = ivs[r+1].start - iv.end
				}
				switch rng.Intn(16) { // 7 to 15 keep the spread default
				case 0:
					ready = 0
				case 1:
					dur = 0
				case 2: // past the tail
					ready = ivs[k-1].end + tick(16)
				case 3: // inside the gap after iv, or past it
					ready = iv.end + tick(int(gap*8)+8)
				case 4: // touch iv on the left
					ready = iv.end
				case 5: // touch the next interval on the right
					if gap > 0 {
						ready = iv.end + tick(int(gap*8))
						dur = iv.end + gap - ready
					}
				case 6: // fill the gap after iv exactly
					if gap > 0 {
						ready, dur = iv.end, gap
					}
				}
			}
			w := refPlace(&want, ready, dur)
			if dur > 0 {
				_, left := slices.BinarySearchFunc(ivs, w, func(iv ival, t Time) int { return cmp.Compare(iv.end, t) })
				_, right := slices.BinarySearchFunc(ivs, w+dur, func(iv ival, t Time) int { return cmp.Compare(iv.start, t) })
				touches[b2i(left)+2*b2i(right)]++
			}
			if g := got.place(ready, dur); g != w {
				t.Fatalf("seed %d op %d: place(%v, %v) = %v, bisection gives %v", seed, op, ready, dur, g, w)
			}
			if !slices.Equal(got.intervals, want.intervals) || got.busy != want.busy {
				t.Fatalf("seed %d op %d: place(%v, %v) left intervals %v, bisection %v", seed, op, ready, dur, got.intervals, want.intervals)
			}
			maxIvs = max(maxIvs, len(want.intervals))
		}
	}
	t.Logf("ops by touch (neither, left, right, both): %v; at most %d intervals", touches, maxIvs)
	for c, n := range touches {
		if n == 0 {
			t.Errorf("no op exercised touch case %d (neither, left, right, both): %v", c, touches)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
