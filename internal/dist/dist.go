// Package dist drives a coherence analyzer over a simulated
// distributed-memory machine (paper §8): it decides where each launch's
// dependence/coherence analysis executes, converts the analyzer's
// state-ownership touches into simulated work and messages, routes the
// materialization plan's data movement over the network, and schedules
// task execution behind its dependences.
//
// Without dynamic control replication (DCR), every launch is analyzed on
// node 0 — the single top-level task of the implicitly-parallel program —
// which becomes a sequential bottleneck at scale. With DCR, launches are
// analyzed on the shard (node) that will execute them, distributing the
// analysis exactly as Legion's control replication does (§8, [4]).
package dist

import (
	"visibility/internal/bvh"
	"visibility/internal/cluster"
	"visibility/internal/core"
	"visibility/internal/geometry"
	"visibility/internal/index"
	"visibility/internal/obs"
	"visibility/internal/region"
)

// The analysis cost model (DESIGN §4.1), calibrated so that a single-node
// launch costs O(10µs) of analysis, resembling untraced Legion. Each use
// combines one constant with a run-time value, so it rounds as float64
// arithmetic; an expression of constants alone would be folded exactly
// and could move virtual time by a bit.
const (
	// opCost is seconds of CPU per analysis op unit (one history entry
	// scan, overlap test, or state mutation as reported by probes).
	opCost cluster.Time = 1.2e-6
	// visitCost is seconds per traversal step through replicated
	// acceleration structures — pointer chases, far cheaper than opCost.
	visitCost cluster.Time = 5e-8
	// launchOverhead is the fixed cost of processing one task launch on
	// its analysis node.
	launchOverhead cluster.Time = 8e-6
	// controlBytes is the size of a control message touching remote
	// analysis state.
	controlBytes int64 = 256
	// bytesPerPoint scales a materialization plan entry's index-space
	// volume to bytes moved.
	bytesPerPoint float64 = 8
	// futureBytes is the wire size of one future value.
	futureBytes int64 = 64
)

// Config selects where analysis runs and how it is instrumented.
type Config struct {
	// DCR shards analysis across nodes when true; otherwise all analysis
	// funnels through node 0.
	DCR bool
	// Options is the instrumentation handed to the driven analyzer
	// (Metrics nil gets a private registry, reachable via Driver.Metrics;
	// Faults here arms the analyzer-side sites — transport faults are armed
	// on the Machine's own Config). New overwrites Probe and Owner on its
	// copy: the driver is the probe, and ownership is New's argument.
	core.Options
}

// DefaultConfig returns the configuration with analysis distributed when
// dcr is true.
func DefaultConfig(dcr bool) Config {
	return Config{DCR: dcr}
}

// Driver runs launches through an analyzer onto a machine.
type Driver struct {
	m *cluster.Machine
	// an is the driven dependence analyzer; Launch runs it in program
	// order on the driving goroutine (§3.2).
	//
	// confined to analyzer
	an  core.Analyzer
	cfg Config

	// confined to analyzer
	probe *recorder
	// confined to analyzer
	taskDone map[int]cluster.Ref
	// confined to analyzer
	taskNode map[int]int
	owner    core.OwnerFunc
	// confined to analyzer
	all []cluster.Ref

	metrics  *obs.Registry
	localOps *obs.Histogram // per-launch analysis ops on the analyzing node
	remotes  *obs.Counter   // remote-owner round trips issued

	// lastAnalysis orders each shard's analysis in program order: a
	// dynamic dependence analysis observes launches sequentially (§3.2).
	//
	// confined to analyzer
	lastAnalysis map[int]cluster.Ref

	// remote and remoteOrder are Launch's scratch, empty between launches:
	// the work one launch queues on each remote owner, and those owners in
	// order of first appearance — which fixes the order its requests are
	// sent in, and so virtual time.
	//
	// confined to analyzer
	remote []remoteWork // by owner
	// confined to analyzer
	remoteOrder []int
}

type remoteWork struct {
	ops  int64
	seen bool // a touch may carry zero ops and still costs the round trip
}

// visitOwner marks traversal work (Probe.Visit) in the touch sequence.
const visitOwner = -2

// recorder implements core.Probe, buffering the touches of one Analyze.
type recorder struct {
	touches      []touch
	analysisNode int
	cached       map[fetchKey]bool
}

type touch struct {
	owner int
	ops   int64
}

func (r *recorder) add(owner int, ops int64) {
	// Coalesce consecutive touches to the same owner: they are one visit.
	if n := len(r.touches); n > 0 && r.touches[n-1].owner == owner {
		r.touches[n-1].ops += ops
		return
	}
	r.touches = append(r.touches, touch{owner, ops})
}

// Touch implements core.Probe.
func (r *recorder) Touch(owner int, ops int64) { r.add(owner, ops) }

// Visit implements core.Probe.
func (r *recorder) Visit(ops int64) { r.add(visitOwner, ops) }

// Fetch implements core.Probe. The driver resolves whether the analyzing
// node has already cached this token: a first fetch is a remote touch that
// transfers the state, a repeat is a local visit.
func (r *recorder) Fetch(owner int, token int64, ops int64) {
	key := fetchKey{node: r.analysisNode, token: token}
	if r.cached[key] {
		r.add(visitOwner, 1)
		return
	}
	r.cached[key] = true
	if owner == r.analysisNode || owner == core.LocalOwner {
		r.add(r.analysisNode, ops)
		return
	}
	r.add(owner, ops)
}

type fetchKey struct {
	node  int
	token int64
}

// NewAnalyzerFunc constructs an analyzer given instrumentation options;
// each algorithm's New matches it.
type NewAnalyzerFunc = core.NewAnalyzerFunc

// New creates a Driver: it builds the analyzer with a probe attached and
// with state ownership assigned by owner. The analyzer's operation
// counters are published on the driver's metrics registry (cfg.Metrics,
// or a private one) under "analyzer/".
//
// confined to analyzer
func New(m *cluster.Machine, tree *region.Tree, newAnalyzer NewAnalyzerFunc, owner core.OwnerFunc, cfg Config) *Driver {
	d := &Driver{
		m:            m,
		cfg:          cfg,
		probe:        &recorder{cached: make(map[fetchKey]bool)},
		taskDone:     make(map[int]cluster.Ref),
		taskNode:     make(map[int]int),
		owner:        owner,
		lastAnalysis: make(map[int]cluster.Ref),
		remote:       make([]remoteWork, m.Nodes()),
	}
	opts := cfg.Options
	opts.Probe, opts.Owner = d.probe, owner
	opts = opts.Normalize()
	d.metrics = opts.Metrics
	d.localOps = d.metrics.NewHistogram("dist/launch_local_ops", 4, 16, 64, 256, 1024, 4096)
	d.remotes = d.metrics.NewCounter("dist/remote_roundtrips")
	d.an = newAnalyzer(tree, opts)
	d.an.Stats().RegisterMetrics(d.metrics, "analyzer")
	return d
}

// Analyzer returns the driven analyzer (for stats inspection).
//
// confined to analyzer
func (d *Driver) Analyzer() core.Analyzer { return d.an }

// Metrics returns the driver's metrics registry: the analyzer's counters,
// the machine's message tallies when it shares the registry, and the
// driver's own launch-cost instruments.
func (d *Driver) Metrics() *obs.Registry { return d.metrics }

// Launch analyzes t and schedules its execution on execNode for dur
// seconds of virtual time. It returns the completion reference.
//
// confined to analyzer
func (d *Driver) Launch(t *core.Task, execNode int, dur cluster.Time) cluster.Ref {
	analysisNode := 0
	if d.cfg.DCR {
		analysisNode = execNode
	}

	d.probe.touches = d.probe.touches[:0]
	d.probe.analysisNode = analysisNode
	res := d.an.Analyze(t)

	// Analysis: fixed launch overhead, then the recorded state touches in
	// order, all on utility processors. Remote-owned state costs a control
	// round trip and queues its work on the owner's utility processor.
	prev, ok := d.lastAnalysis[analysisNode]
	if !ok {
		prev = cluster.NoRef
	}
	// Local work (launch overhead, local state, traversal) runs serially;
	// remote-owned state is touched by one batched request per owner, all
	// issued in parallel after the local work, as Legion's analysis
	// broadcasts requests and gathers responses.
	local := launchOverhead
	var localUnits int64
	for _, tc := range d.probe.touches {
		switch {
		case tc.owner == visitOwner:
			local += cluster.Time(tc.ops) * visitCost
			localUnits += tc.ops
		case tc.owner == core.LocalOwner || tc.owner == analysisNode:
			local += cluster.Time(tc.ops) * opCost
			localUnits += tc.ops
		default:
			w := &d.remote[tc.owner]
			if !w.seen {
				w.seen = true
				d.remoteOrder = append(d.remoteOrder, tc.owner)
			}
			w.ops += tc.ops
		}
	}
	d.localOps.Observe(localUnits)
	d.remotes.Add(int64(len(d.remoteOrder)))
	// The slice labels are read by the exported trace only.
	var name string
	if d.m.Tracing() {
		name = t.String()
	}
	chain := d.m.UtilNamed(analysisNode, "analyze "+name, local, prev)
	if len(d.remoteOrder) > 0 {
		gather := make([]cluster.Ref, 0, len(d.remoteOrder))
		for _, owner := range d.remoteOrder {
			req := d.m.Message(analysisNode, owner, controlBytes, chain)
			remote := d.m.UtilNamed(owner, "touch "+name, cluster.Time(d.remote[owner].ops)*opCost, req)
			gather = append(gather, d.m.Message(owner, analysisNode, controlBytes, remote))
			d.remote[owner] = remoteWork{}
		}
		d.remoteOrder = d.remoteOrder[:0]
		chain = d.m.AfterAll(gather...)
	}
	d.lastAnalysis[analysisNode] = chain

	// Gather preconditions: completion of dependences, delivery of the
	// data each plan entry materializes, and any consumed futures (small
	// messages from their producers' nodes).
	pres := []cluster.Ref{chain}
	for _, dep := range res.Deps {
		if r, ok := d.taskDone[dep]; ok {
			pres = append(pres, r)
		}
	}
	for _, fd := range t.FutureDeps {
		r, ok := d.taskDone[fd]
		if !ok {
			continue
		}
		src := d.taskNode[fd]
		if src == execNode {
			pres = append(pres, r)
			continue
		}
		pres = append(pres, d.m.Message(src, execNode, futureBytes, r))
	}
	for _, plan := range res.Plans {
		for _, v := range plan {
			src, after := d.producer(v)
			if src == execNode {
				continue
			}
			bytes := int64(float64(v.Pts.Volume()) * bytesPerPoint)
			pres = append(pres, d.m.Message(src, execNode, bytes, after))
		}
	}

	done := d.m.ExecNamed(execNode, name, dur, pres...)
	d.taskDone[t.ID] = done
	d.taskNode[t.ID] = execNode
	d.all = append(d.all, done)
	return done
}

// producer returns the node holding a plan entry's data and the reference
// after which it is available.
func (d *Driver) producer(v core.Visible) (int, cluster.Ref) {
	if v.Task == core.InitialTask {
		return d.owner(v.Pts), cluster.NoRef
	}
	return d.taskNode[v.Task], d.taskDone[v.Task]
}

// Barrier returns the virtual time at which every launch so far has
// completed — an execution fence, used to delimit the initialization and
// steady-state measurement phases.
//
// confined to analyzer
func (d *Driver) Barrier() cluster.Time {
	return d.m.TimeOf(d.m.AfterAll(d.all...))
}

// OwnerByPartition returns an OwnerFunc assigning state to the node owning
// the first subregion of p it overlaps (subregion index modulo the machine
// size), with node 0 owning anything outside p — the usual
// "analysis state lives with the primary partition" placement.
func OwnerByPartition(p *region.Partition, nodes int) core.OwnerFunc {
	var inputs []bvh.Input
	for i, sub := range p.Subregions {
		for _, r := range sub.Space.Rects() {
			inputs = append(inputs, bvh.Input{Box: r, ID: i})
		}
	}
	tree := bvh.Build(inputs)
	subs := p.Subregions
	return func(sp index.Space) int {
		if sp.IsEmpty() {
			return 0
		}
		// The low corner of the space picks a unique owner.
		lo := sp.Lo()
		probe := geometry.PointRect(lo, sp.Dim())
		best := -1
		tree.Query(probe, func(i int) {
			if subs[i].Space.Contains(lo) && (best == -1 || i < best) {
				best = i
			}
		})
		if best == -1 {
			return 0
		}
		return best % nodes
	}
}
