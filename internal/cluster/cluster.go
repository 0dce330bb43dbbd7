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

	"visibility/internal/fault"
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
	// Faults is the deterministic fault-injection plane for the transport
	// sites (message drop/delay/duplication/reorder). Nil disables them.
	Faults *fault.Injector
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
}

type ival struct{ start, end Time }

// place reserves dur seconds at the earliest time >= ready with a free gap
// and returns the start time.
func (p *proc) place(ready, dur Time) Time {
	if dur <= 0 {
		return ready
	}
	// First interval that ends after ready: earlier intervals are
	// irrelevant.
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
	// driver, itself confined to the analysis goroutine).
	//
	// confined to cluster-sim
	exec []proc
	// confined to cluster-sim
	util []proc
	// done is the completion time per op.
	//
	// confined to cluster-sim
	done []Time

	// Message tallies live on the obs registry; Messages() reads them
	// back, so existing callers see the same numbers.
	metrics  *obs.Registry
	messages *obs.Counter
	bytes    *obs.Counter
	msgSize  *obs.Histogram

	// Per-site transport fault tallies (always registered; they stay zero
	// without an active fault plan).
	faultDropped   *obs.Counter
	faultDelayed   *obs.Counter
	faultDuped     *obs.Counter
	faultReordered *obs.Counter

	// rec, when non-nil, journals every scheduled slice and message for
	// trace export (EnableTracing).
	rec *traceRec
}

// traceRec is the virtual-time journal behind ExportTrace.
type traceRec struct {
	ops   []opRecord
	refOp map[Ref]int // scheduling Ref -> index into ops
	msgs  []msgRecord
}

// opRecord is one scheduled slice of processor time.
type opRecord struct {
	node  int
	util  bool // utility processor (vs execution)
	name  string
	start Time
	dur   Time
}

// msgRecord is one cross-node (or self) message: the refs of its send and
// receive slices.
type msgRecord struct {
	bytes      int64
	send, recv Ref
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
		msgSize:  reg.NewHistogram("cluster/message_size", 64, 256, 1024, 4096, 16384, 65536, 1<<20),

		faultDropped:   reg.NewCounter("cluster/faults/dropped"),
		faultDelayed:   reg.NewCounter("cluster/faults/delayed"),
		faultDuped:     reg.NewCounter("cluster/faults/duplicated"),
		faultReordered: reg.NewCounter("cluster/faults/reordered"),
	}
}

// Metrics returns the machine's metrics registry.
func (m *Machine) Metrics() *obs.Registry { return m.metrics }

// EnableTracing starts journaling every scheduled slice and message for
// ExportTrace. Enable it before scheduling anything; work submitted
// earlier is absent from the export.
func (m *Machine) EnableTracing() {
	if m.rec == nil {
		m.rec = &traceRec{refOp: make(map[Ref]int)}
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
		if dt := m.done[d]; dt > t {
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

func (m *Machine) schedule(node int, util bool, name string, dur Time, deps []Ref) Ref {
	p := &m.exec[node]
	if util {
		p = &m.util[node]
	}
	start := p.place(m.depsReady(deps), dur)
	m.done = append(m.done, start+dur)
	ref := Ref(len(m.done) - 1)
	if m.rec != nil {
		m.rec.refOp[ref] = len(m.rec.ops)
		m.rec.ops = append(m.rec.ops, opRecord{node: node, util: util, name: name, start: start, dur: dur})
	}
	return ref
}

// Exec schedules dur seconds of kernel work on node's execution processor,
// starting at the earliest free slot after all deps are complete.
//
// confined to cluster-sim
func (m *Machine) Exec(node int, dur Time, deps ...Ref) Ref {
	return m.ExecNamed(node, "exec", dur, deps...)
}

// ExecNamed is Exec with a label for the exported trace.
//
// confined to cluster-sim
func (m *Machine) ExecNamed(node int, name string, dur Time, deps ...Ref) Ref {
	m.checkNode(node)
	return m.schedule(node, false, name, dur, deps)
}

// Util schedules dur seconds of runtime (analysis) work on node's utility
// processor.
//
// confined to cluster-sim
func (m *Machine) Util(node int, dur Time, deps ...Ref) Ref {
	return m.UtilNamed(node, "util", dur, deps...)
}

// UtilNamed is Util with a label for the exported trace.
//
// confined to cluster-sim
func (m *Machine) UtilNamed(node int, name string, dur Time, deps ...Ref) Ref {
	m.checkNode(node)
	return m.schedule(node, true, name, dur, deps)
}

// Message schedules a message of size bytes from one node to another,
// available for dependents at delivery time. Send and receive overheads
// occupy the respective utility processors; the wire time occupies
// neither. A message to self costs only the overheads.
//
// confined to cluster-sim
func (m *Machine) Message(from, to int, bytes int64, deps ...Ref) Ref {
	m.checkNode(from)
	m.checkNode(to)
	sent := m.UtilNamed(from, "send", sendOverhead, deps...)
	m.messages.Inc()
	m.bytes.Add(bytes)
	m.msgSize.Observe(bytes)
	wire := Time(0)
	if from != to {
		wire = messageLatency + float64(bytes)/bandwidth
	}
	// Fault plane. Sites are evaluated in a fixed order with the
	// destination node as argument; each draws from its own stream, so a
	// plan's transport faults are a function of the message sequence alone.
	deliverAfter := sent
	extra := Time(0)
	dup := false
	if f := m.cfg.Faults; f != nil {
		if fired, v := f.FireValue(fault.MsgDrop, int64(to)); fired {
			// A lost message cannot simply vanish — dependents would never
			// become ready — so model the loss as the runtime would resolve
			// it: the sender retransmits after a timeout, paying a second
			// send overhead, and delivery slips by the whole round.
			m.faultDropped.Inc()
			timeout := messageLatency * Time(8+v%56)
			deliverAfter = m.UtilNamed(from, "resend", sendOverhead, m.afterTime(m.done[sent]+timeout))
		}
		if fired, v := f.FireValue(fault.MsgDelay, int64(to)); fired {
			m.faultDelayed.Inc()
			extra += messageLatency * Time(1+v%16)
		}
		if fired, v := f.FireValue(fault.MsgReorder, int64(to)); fired {
			// Held long enough that later traffic on the same link overtakes.
			m.faultReordered.Inc()
			extra += messageLatency * Time(16+v%64)
		}
		dup, _ = f.FireValue(fault.MsgDup, int64(to))
	}
	// Receive processing occupies the destination's utility processor
	// after the wire delivers.
	recv := m.schedule(to, true, "recv", receiveOverhead, []Ref{m.afterTime(m.done[deliverAfter] + wire + extra)})
	if dup {
		// The duplicate receive burns destination utility time but gates
		// nothing: duplicated runtime messages are idempotent.
		m.faultDuped.Inc()
		m.schedule(to, true, "recv-dup", receiveOverhead, []Ref{m.afterTime(m.done[deliverAfter] + wire + extra)})
	}
	if m.rec != nil {
		m.rec.msgs = append(m.rec.msgs, msgRecord{bytes: bytes, send: sent, recv: recv})
	}
	return recv
}

// afterTime returns a pseudo-op completing at t.
func (m *Machine) afterTime(t Time) Ref {
	m.done = append(m.done, t)
	return Ref(len(m.done) - 1)
}

// AfterAll returns a zero-cost operation completing when all deps have.
//
// confined to cluster-sim
func (m *Machine) AfterAll(deps ...Ref) Ref {
	m.done = append(m.done, m.depsReady(deps))
	return Ref(len(m.done) - 1)
}

// TimeOf returns the completion time of r.
//
// confined to cluster-sim
func (m *Machine) TimeOf(r Ref) Time {
	if r == NoRef {
		return 0
	}
	return m.done[r]
}

// Makespan returns the completion time of the entire schedule so far.
//
// confined to cluster-sim
func (m *Machine) Makespan() Time {
	var t Time
	for _, d := range m.done {
		if d > t {
			t = d
		}
	}
	return t
}

// NodeBusy returns the cumulative busy time of node's execution processor.
//
// confined to cluster-sim
func (m *Machine) NodeBusy(node int) Time {
	m.checkNode(node)
	return m.exec[node].busy
}

// UtilBusy returns the cumulative busy time of node's utility processor.
//
// confined to cluster-sim
func (m *Machine) UtilBusy(node int) Time {
	m.checkNode(node)
	return m.util[node].busy
}

// Messages returns the number of messages and total bytes sent (thin
// reads over the registry counters).
func (m *Machine) Messages() (int64, int64) { return m.messages.Load(), m.bytes.Load() }

// Ops returns the number of scheduled operations.
func (m *Machine) Ops() int { return len(m.done) }

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
		send := m.rec.ops[m.rec.refOp[msg.send]]
		recv := m.rec.ops[m.rec.refOp[msg.recv]]
		name := fmt.Sprintf("msg %dB", msg.bytes)
		tw.FlowStart(id, send.node, UtilTID, name, "message", virtualNs(send.start))
		tw.FlowEnd(id, recv.node, UtilTID, name, "message", virtualNs(recv.start))
	}
}
