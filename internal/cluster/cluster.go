// Package cluster simulates a distributed-memory machine in virtual time,
// substituting for the Piz Daint system of the paper's evaluation (§8).
//
// The simulation is a deterministic virtual-time scheduler rather than a
// cycle-accurate model: each node serializes the work submitted to it in
// submission order (a work queue), messages between nodes cost latency plus
// size over bandwidth, and arbitrary dependence edges order work items
// across nodes. The coherence analyses run for real — their actual data
// structure operation counts and state-ownership touches are converted into
// work items and messages by the dist package — so sequential bottlenecks
// and data-structure blowups appear in the virtual makespan exactly where
// the real algorithms produce them.
package cluster

import (
	"fmt"
	"math"

	"visibility/internal/obs"
)

// Time is virtual seconds.
type Time = float64

// Ref identifies a scheduled operation; its completion can gate later
// operations.
type Ref int

// NoRef is the absent operation reference.
const NoRef Ref = -1

// The interconnect's costs (DESIGN §4.1): a GPU-node supercomputer
// network of the paper's era (microsecond-scale latency, tens of GB/s
// links). As in dist, each use combines one constant with a run-time
// value, so it rounds as float64 arithmetic.
const (
	// messageLatency is the one-way wire latency per message in seconds.
	messageLatency Time = 2e-6
	// bandwidth is bytes per second on each link.
	bandwidth float64 = 1e10
	// sendOverhead is CPU time a node spends to emit one message.
	sendOverhead Time = 4e-7
	// receiveOverhead is CPU time a node spends to absorb one message.
	receiveOverhead Time = 4e-7
)

// Config describes the simulated machine.
type Config struct {
	Nodes int
	// Metrics is the registry the machine publishes message counters
	// into; nil gets a private registry.
	Metrics *obs.Registry
}

// DefaultConfig returns a machine of nodes nodes with the package's
// interconnect constants.
func DefaultConfig(nodes int) Config {
	return Config{Nodes: nodes}
}

// proc is one simulated processor: a capacity-1 resource scheduling work
// into the earliest gap after each item's dependences are ready
// (backfilling). This models an out-of-order runtime: ready work is never
// blocked behind work that is still waiting on remote results, but a
// saturated processor still serializes everything offered to it.
type proc struct {
	intervals []ival // busy intervals: sorted, disjoint, coalesced
	busy      Time
	// hint is the index the previous search found: successive placements
	// mostly land close together, though far from the tail.
	hint int
}

type ival struct{ start, end Time }

// search returns the index of the first interval ending after ready (the
// earlier ones are irrelevant to a placement at or after it). It gallops
// out from the hint (1, 2, 4, … intervals) until it brackets that index,
// then bisects the bracket; the predicate is monotone, so the answer is
// the one a bisection of the whole list finds.
func (p *proc) search(ready Time) int {
	ivs := p.intervals
	h := min(p.hint, len(ivs))
	var lo, hi int
	step := 1
	if h < len(ivs) && ivs[h].end <= ready {
		for lo = h + 1; h+step < len(ivs) && ivs[h+step].end <= ready; step *= 2 {
			lo = h + step + 1
		}
		hi = min(h+step, len(ivs))
	} else {
		for hi = h; h-step >= 0 && ivs[h-step].end > ready; step *= 2 {
			hi = h - step
		}
		lo = max(h-step+1, 0)
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if ivs[mid].end <= ready {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	p.hint = lo
	return lo
}

// place reserves dur seconds at the earliest time >= ready with a free gap
// and returns the start time.
func (p *proc) place(ready, dur Time) Time {
	if dur <= 0 {
		return ready
	}
	t := ready
	i := p.search(ready)
	for ; i < len(p.intervals); i++ {
		iv := p.intervals[i]
		if t+dur <= iv.start {
			break // fits in the gap before interval i
		}
		if iv.end > t {
			t = iv.end
		}
	}
	p.busy += dur
	// Insert [t, t+dur) at position i, coalescing with neighbors.
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

// Machine is a virtual-time machine. Each node has two independent
// processors, as Legion nodes do: an execution processor (the GPU) that
// runs task kernels, and a utility processor that runs the dependence and
// coherence analyses and processes messages. It is not safe for concurrent
// use.
type Machine struct {
	cfg Config

	// The simulation tables are advanced by each Exec/Util/Message call
	// with no lock: the machine is driven by one goroutine (the dist
	// driver, which runs on the analysis goroutine).
	exec []proc
	util []proc
	// done holds the completion time per op in pages of pageSize that
	// are never copied; ops counts the ops recorded.
	done [][]Time
	ops  int

	// Message tallies live on the obs registry; Messages() reads them
	// back, so existing callers see the same numbers.
	metrics  *obs.Registry
	messages *obs.Counter
	bytes    *obs.Counter

	// rec, when non-nil, journals every scheduled slice and message for
	// trace export (EnableTracing).
	rec *traceRec
}

// traceRec is the virtual-time journal behind ExportTrace.
type traceRec struct {
	ops  []opRecord
	msgs []msgRecord
}

// opRecord is one scheduled slice of processor time.
type opRecord struct {
	node  int
	util  bool // utility processor (vs execution)
	name  string
	start Time
	dur   Time
}

// msgRecord is one cross-node (or self) message: the indices in ops of its
// send and receive slices.
type msgRecord struct {
	bytes      int64
	send, recv int
}

// New creates a machine.
func New(cfg Config) *Machine {
	if cfg.Nodes < 1 {
		panic("cluster: need at least one node")
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Machine{
		cfg:      cfg,
		exec:     make([]proc, cfg.Nodes),
		util:     make([]proc, cfg.Nodes),
		metrics:  reg,
		messages: reg.NewCounter("cluster/messages"),
		bytes:    reg.NewCounter("cluster/message_bytes"),
	}
}

// Metrics returns the machine's metrics registry.
func (m *Machine) Metrics() *obs.Registry { return m.metrics }

// EnableTracing starts journaling every scheduled slice and message for
// ExportTrace. Enable it before scheduling anything; work submitted
// earlier is absent from the export.
func (m *Machine) EnableTracing() {
	if m.rec == nil {
		m.rec = &traceRec{}
	}
}

// Tracing reports whether the machine is journaling: only then does
// anything read the names given to ExecNamed and UtilNamed, so a caller
// with per-slice labels to format can skip the formatting.
func (m *Machine) Tracing() bool { return m.rec != nil }

// Nodes returns the node count.
func (m *Machine) Nodes() int { return m.cfg.Nodes }

func (m *Machine) depsReady(deps []Ref) Time {
	var t Time
	for _, d := range deps {
		if d == NoRef {
			continue
		}
		if dt := m.at(d); dt > t {
			t = dt
		}
	}
	return t
}

func (m *Machine) checkNode(node int) {
	if node < 0 || node >= m.cfg.Nodes {
		panic(fmt.Sprintf("cluster: node %d out of range [0,%d)", node, m.cfg.Nodes))
	}
}

// schedule places dur seconds on one of node's processors at the earliest
// free slot at or after ready.
func (m *Machine) schedule(node int, util bool, name string, dur, ready Time) Ref {
	p := &m.exec[node]
	if util {
		p = &m.util[node]
	}
	start := p.place(ready, dur)
	if m.rec != nil {
		m.rec.ops = append(m.rec.ops, opRecord{node: node, util: util, name: name, start: start, dur: dur})
	}
	return m.afterTime(start + dur)
}

// pageSize is the number of completion times per page of Machine.done.
const pageSize = 1 << 12

// afterTime records an op completing at t and returns its Ref.
func (m *Machine) afterTime(t Time) Ref {
	if m.ops%pageSize == 0 {
		m.done = append(m.done, make([]Time, pageSize))
	}
	m.done[m.ops/pageSize][m.ops%pageSize] = t
	m.ops++
	return Ref(m.ops - 1)
}

// at returns the completion time of op r.
func (m *Machine) at(r Ref) Time { return m.done[uint(r)/pageSize][uint(r)%pageSize] }

// Exec schedules dur seconds of kernel work on node's execution processor,
// starting at the earliest free slot after all deps are complete.
func (m *Machine) Exec(node int, dur Time, deps ...Ref) Ref {
	return m.ExecNamed(node, "exec", dur, deps...)
}

// ExecNamed is Exec with a label for the exported trace.
func (m *Machine) ExecNamed(node int, name string, dur Time, deps ...Ref) Ref {
	m.checkNode(node)
	return m.schedule(node, false, name, dur, m.depsReady(deps))
}

// Util schedules dur seconds of runtime (analysis) work on node's utility
// processor.
func (m *Machine) Util(node int, dur Time, deps ...Ref) Ref {
	return m.UtilNamed(node, "util", dur, deps...)
}

// UtilNamed is Util with a label for the exported trace.
func (m *Machine) UtilNamed(node int, name string, dur Time, deps ...Ref) Ref {
	m.checkNode(node)
	return m.schedule(node, true, name, dur, m.depsReady(deps))
}

// Message schedules a message of size bytes from one node to another,
// available for dependents at delivery time. Send and receive overheads
// occupy the respective utility processors; the wire time occupies
// neither. A message to self costs only the overheads.
func (m *Machine) Message(from, to int, bytes int64, deps ...Ref) Ref {
	m.checkNode(from)
	m.checkNode(to)
	sent := m.UtilNamed(from, "send", sendOverhead, deps...)
	m.messages.Inc()
	m.bytes.Add(bytes)
	wire := Time(0)
	if from != to {
		wire = messageLatency + float64(bytes)/bandwidth
	}
	// Receive processing occupies the destination's utility processor
	// after the wire delivers.
	recv := m.schedule(to, true, "recv", receiveOverhead, m.at(sent)+wire)
	if m.rec != nil {
		// The send and receive are the last two slices journaled.
		n := len(m.rec.ops)
		m.rec.msgs = append(m.rec.msgs, msgRecord{bytes: bytes, send: n - 2, recv: n - 1})
	}
	return recv
}

// AfterAll returns a zero-cost operation completing when all deps have.
func (m *Machine) AfterAll(deps ...Ref) Ref {
	return m.afterTime(m.depsReady(deps))
}

// TimeOf returns the completion time of r.
func (m *Machine) TimeOf(r Ref) Time {
	if r == NoRef {
		return 0
	}
	return m.at(r)
}

// Makespan returns the completion time of the entire schedule so far.
func (m *Machine) Makespan() Time {
	var t Time
	for r := Ref(0); r < Ref(m.ops); r++ {
		if d := m.at(r); d > t {
			t = d
		}
	}
	return t
}

// NodeBusy returns the cumulative busy time of node's execution processor.
func (m *Machine) NodeBusy(node int) Time {
	m.checkNode(node)
	return m.exec[node].busy
}

// UtilBusy returns the cumulative busy time of node's utility processor.
func (m *Machine) UtilBusy(node int) Time {
	m.checkNode(node)
	return m.util[node].busy
}

// Messages returns the number of messages and total bytes sent (thin
// reads over the registry counters).
func (m *Machine) Messages() (int64, int64) { return m.messages.Load(), m.bytes.Load() }

// virtualNs converts virtual seconds to integer nanoseconds, the
// timestamp unit of the trace exporter. Rounding through math.Round makes
// the mapping deterministic for identical schedules.
func virtualNs(t Time) int64 { return int64(math.Round(t * 1e9)) }

// Exported thread ids within each node's process: execution processor
// (the GPU) and utility processor (analysis + message handling).
const (
	ExecTID = 0
	UtilTID = 1
)

// ExportTrace emits the journaled virtual-time schedule as Chrome
// trace events: one process per simulated node with an exec and a util
// track, every scheduled slice as a duration event, and every message as
// a flow arrow from its send slice to its receive slice. EnableTracing
// must have been called before the work was scheduled; otherwise the
// export is empty.
func (m *Machine) ExportTrace(tw *obs.TraceWriter) {
	for n := 0; n < m.cfg.Nodes; n++ {
		tw.ProcessName(n, fmt.Sprintf("node %d", n))
		tw.ThreadName(n, ExecTID, "exec (gpu)")
		tw.ThreadName(n, UtilTID, "util (analysis)")
	}
	if m.rec == nil {
		return
	}
	for _, op := range m.rec.ops {
		tid, cat := ExecTID, "task"
		if op.util {
			tid, cat = UtilTID, "runtime"
		}
		tw.Duration(op.node, tid, op.name, cat, virtualNs(op.start), virtualNs(op.dur), nil)
	}
	for i, msg := range m.rec.msgs {
		id := int64(i + 1)
		send, recv := m.rec.ops[msg.send], m.rec.ops[msg.recv]
		name := fmt.Sprintf("msg %dB", msg.bytes)
		tw.FlowStart(id, send.node, UtilTID, name, "message", virtualNs(send.start))
		tw.FlowEnd(id, recv.node, UtilTID, name, "message", virtualNs(recv.start))
	}
}
