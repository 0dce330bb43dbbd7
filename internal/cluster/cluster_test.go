package cluster

import (
	"math"
	"math/rand"
	"testing"
)

func approx(a, b Time) bool { return math.Abs(a-b) < 1e-12 }

func cfg(nodes int) Config { return Config{Nodes: nodes} }

func TestExecSerializesPerNode(t *testing.T) {
	m := New(cfg(2))
	a := m.Exec(0, 1.0)
	b := m.Exec(0, 2.0)
	c := m.Exec(1, 0.5)
	if !approx(m.TimeOf(a), 1.0) {
		t.Errorf("a done at %v", m.TimeOf(a))
	}
	if !approx(m.TimeOf(b), 3.0) {
		t.Errorf("b should queue behind a: %v", m.TimeOf(b))
	}
	if !approx(m.TimeOf(c), 0.5) {
		t.Errorf("c on another node should run immediately: %v", m.TimeOf(c))
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
	a := m.Exec(0, 1.0)
	b := m.Exec(1, 1.0, a) // waits for a
	if !approx(m.TimeOf(b), 2.0) {
		t.Errorf("b = %v, want 2.0", m.TimeOf(b))
	}
	// Backfill: independent work slots into the gap before b.
	c := m.Exec(1, 1.0)
	if !approx(m.TimeOf(c), 1.0) {
		t.Errorf("c = %v, want 1.0 (backfilled)", m.TimeOf(c))
	}
	// No gap remains: the next item queues after b.
	d := m.Exec(1, 1.0)
	if !approx(m.TimeOf(d), 3.0) {
		t.Errorf("d = %v, want 3.0", m.TimeOf(d))
	}
	// An item too large for the remaining gap goes to the end.
	e := m.Exec(1, 0.5, a) // ready at 1.0, but [1,3] is busy
	if !approx(m.TimeOf(e), 3.5) {
		t.Errorf("e = %v, want 3.5", m.TimeOf(e))
	}
}

func TestBackfillSmallGap(t *testing.T) {
	m := New(cfg(1))
	gate := m.Exec(0, 0) // completes at 0
	long := m.Exec(0, 2.0, m.afterTime(1.0))
	_ = gate
	if !approx(m.TimeOf(long), 3.0) {
		t.Fatalf("long = %v", m.TimeOf(long))
	}
	small := m.Exec(0, 0.5)
	if !approx(m.TimeOf(small), 0.5) {
		t.Errorf("small = %v, want 0.5 (fits the [0,1) gap)", m.TimeOf(small))
	}
	second := m.Exec(0, 0.75)
	if !approx(m.TimeOf(second), 3.75) {
		t.Errorf("second = %v, want 3.75 (gap too small)", m.TimeOf(second))
	}
}

func TestMessageTiming(t *testing.T) {
	m := New(cfg(2))
	r := m.Message(0, 1, 1000)
	// send overhead, wire latency + bytes/bandwidth, receive overhead
	want := sendOverhead + messageLatency + 1000/bandwidth + receiveOverhead
	if !approx(m.TimeOf(r), want) {
		t.Errorf("message delivered at %v, want %v", m.TimeOf(r), want)
	}
	msgs, bytes := m.Messages()
	if msgs != 1 || bytes != 1000 {
		t.Errorf("messages = %d, bytes = %d", msgs, bytes)
	}
}

func TestMessageToSelfSkipsWire(t *testing.T) {
	m := New(cfg(2))
	r := m.Message(1, 1, 1<<20)
	want := sendOverhead + receiveOverhead
	if !approx(m.TimeOf(r), want) {
		t.Errorf("self message at %v, want %v", m.TimeOf(r), want)
	}
}

func TestReceiveQueuesOnBusyUtility(t *testing.T) {
	m := New(cfg(2))
	m.Util(1, 5.0) // node 1's utility processor busy until t=5
	r := m.Message(0, 1, 0)
	// Arrival is early, but receive processing waits for the utility
	// processor.
	if !approx(m.TimeOf(r), 5.0+receiveOverhead) {
		t.Errorf("receive completed at %v, want %v", m.TimeOf(r), 5.0+receiveOverhead)
	}
}

func TestExecAndUtilAreIndependent(t *testing.T) {
	// Kernel work on the execution processor does not delay analysis work
	// on the utility processor of the same node, and vice versa.
	m := New(cfg(1))
	m.Exec(0, 10.0)
	u := m.Util(0, 1.0)
	if !approx(m.TimeOf(u), 1.0) {
		t.Errorf("util work delayed by exec work: %v", m.TimeOf(u))
	}
	e := m.Exec(0, 1.0)
	if !approx(m.TimeOf(e), 11.0) {
		t.Errorf("exec should queue behind exec: %v", m.TimeOf(e))
	}
	if !approx(m.UtilBusy(0), 1.0) || !approx(m.NodeBusy(0), 11.0) {
		t.Error("busy accounting wrong")
	}
}

func TestAfterAll(t *testing.T) {
	m := New(cfg(2))
	a := m.Exec(0, 1.0)
	b := m.Exec(1, 3.0)
	j := m.AfterAll(a, b)
	if !approx(m.TimeOf(j), 3.0) {
		t.Errorf("AfterAll = %v, want 3.0", m.TimeOf(j))
	}
	if !approx(m.TimeOf(m.AfterAll()), 0) {
		t.Error("empty AfterAll should complete at 0")
	}
	if !approx(m.TimeOf(NoRef), 0) {
		t.Error("NoRef completes at 0")
	}
}

func TestSequentialBottleneckEmerges(t *testing.T) {
	// N independent work items funneled through node 0 take N times as
	// long as the same items spread over N nodes — the non-DCR funnel.
	n := 16
	funnel := New(cfg(n))
	spread := New(cfg(n))
	for i := 0; i < n; i++ {
		funnel.Exec(0, 1.0)
		spread.Exec(i, 1.0)
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
		func() { m.Exec(1, 1) },
		func() { m.Exec(-1, 1) },
		func() { m.Message(0, 3, 0) },
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

// TestPlacePropertyNoOverlap schedules many random items and verifies the
// reported completion times are consistent with a capacity-1 processor:
// total busy time never exceeds the makespan and every op takes exactly
// its duration after its dependences.
func TestPlacePropertyNoOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m := New(cfg(1))
	type op struct {
		ref  Ref
		dur  Time
		deps []Ref
	}
	var ops []op
	for i := 0; i < 300; i++ {
		var deps []Ref
		for k := 0; k < rng.Intn(3) && len(ops) > 0; k++ {
			deps = append(deps, ops[rng.Intn(len(ops))].ref)
		}
		dur := Time(rng.Intn(10)) / 10
		ref := m.Exec(0, dur, deps...)
		ops = append(ops, op{ref: ref, dur: dur, deps: deps})
	}
	if m.NodeBusy(0) > m.Makespan()+1e-9 {
		t.Fatalf("busy %v exceeds makespan %v on one processor", m.NodeBusy(0), m.Makespan())
	}
	for _, o := range ops {
		end := m.TimeOf(o.ref)
		for _, d := range o.deps {
			if m.TimeOf(d) > end-o.dur+1e-9 {
				t.Fatalf("op finished at %v but dep finished at %v (dur %v)", end, m.TimeOf(d), o.dur)
			}
		}
	}
}

// TestZeroDurationOpsAreFree verifies zero-duration work never occupies
// the processor.
func TestZeroDurationOpsAreFree(t *testing.T) {
	m := New(cfg(1))
	for i := 0; i < 100; i++ {
		m.Exec(0, 0)
	}
	if m.Makespan() != 0 || m.NodeBusy(0) != 0 {
		t.Errorf("zero-duration ops consumed time: makespan=%v busy=%v", m.Makespan(), m.NodeBusy(0))
	}
}
