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
	"fmt"
	"sync"

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
	// (Metrics nil gets a private registry, reachable via Driver.Metrics).
	// New overwrites Probe and Owner on its copy: the driver is the probe,
	// and ownership is New's argument.
	core.Options
}

// DefaultConfig returns the configuration with analysis distributed when
// dcr is true.
func DefaultConfig(dcr bool) Config {
	return Config{DCR: dcr}
}

// Driver runs launches through an analyzer onto a machine. A Driver, its
// analyzer and its bookkeeping belong to the goroutine that calls Launch;
// none of it carries a lock.
type Driver struct {
	m *cluster.Machine
	// an is the driven dependence analyzer; Launch runs it in program
	// order on the driving goroutine (§3.2).
	an  core.Analyzer
	cfg Config

	probe *recorder
	// tasks is indexed by task ID; done is NoRef for a task not launched
	// here.
	tasks []launched
	owner core.OwnerFunc
	// horizon is the latest completion time of any launch so far.
	horizon cluster.Time

	metrics  *obs.Registry
	localOps *obs.Histogram // per-launch analysis ops on the analyzing node
	remotes  *obs.Counter   // remote-owner round trips issued

	// lastAnalysis orders each shard's analysis in program order: a
	// dynamic dependence analysis observes launches sequentially (§3.2).
	lastAnalysis []cluster.Ref // by node

	// remote and remoteOrder are Launch's scratch, empty between launches:
	// the work one launch queues on each remote owner, and those owners in
	// order of first appearance — which fixes the order its requests are
	// sent in, and so virtual time.
	remote      []remoteWork // by owner
	remoteOrder []int
	// gather and pres are Launch's scratch too, for the replies it waits
	// for and its task's preconditions; the machine keeps no deps slice.
	gather, pres []cluster.Ref
}

type launched struct {
	done cluster.Ref
	node int
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
func New(m *cluster.Machine, tree *region.Tree, newAnalyzer NewAnalyzerFunc, owner core.OwnerFunc, cfg Config) *Driver {
	d := &Driver{
		m:            m,
		cfg:          cfg,
		probe:        &recorder{cached: make(map[fetchKey]bool)},
		owner:        owner,
		lastAnalysis: make([]cluster.Ref, m.Nodes()),
		remote:       make([]remoteWork, m.Nodes()),
	}
	for i := range d.lastAnalysis {
		d.lastAnalysis[i] = cluster.NoRef
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
func (d *Driver) Analyzer() core.Analyzer { return d.an }

// Metrics returns the driver's metrics registry: the analyzer's counters,
// the machine's message tallies when it shares the registry, and the
// driver's own launch-cost instruments.
func (d *Driver) Metrics() *obs.Registry { return d.metrics }

// Launch analyzes t and schedules its execution on execNode for dur
// seconds of virtual time. It returns the completion reference.
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
	prev := d.lastAnalysis[analysisNode]
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
		d.gather = d.gather[:0]
		for _, owner := range d.remoteOrder {
			req := d.m.Message(analysisNode, owner, controlBytes, chain)
			remote := d.m.UtilNamed(owner, "touch "+name, cluster.Time(d.remote[owner].ops)*opCost, req)
			d.gather = append(d.gather, d.m.Message(owner, analysisNode, controlBytes, remote))
			d.remote[owner] = remoteWork{}
		}
		d.remoteOrder = d.remoteOrder[:0]
		chain = d.m.AfterAll(d.gather...)
	}
	d.lastAnalysis[analysisNode] = chain

	// Gather preconditions: completion of dependences, delivery of the
	// data each plan entry materializes, and any consumed futures (small
	// messages from their producers' nodes).
	pres := append(d.pres[:0], chain)
	for _, dep := range res.Deps {
		if l := d.launched(dep); l.done != cluster.NoRef {
			pres = append(pres, l.done)
		}
	}
	for _, fd := range t.FutureDeps {
		switch l := d.launched(fd); {
		case l.done == cluster.NoRef:
		case l.node == execNode:
			pres = append(pres, l.done)
		default:
			pres = append(pres, d.m.Message(l.node, execNode, futureBytes, l.done))
		}
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
	d.pres = pres
	for len(d.tasks) <= t.ID {
		d.tasks = append(d.tasks, launched{done: cluster.NoRef})
	}
	d.tasks[t.ID] = launched{done: done, node: execNode}
	d.horizon = max(d.horizon, d.m.TimeOf(done))
	return done
}

// launched returns where task id ran and its completion; done is NoRef for
// a task not launched here.
func (d *Driver) launched(id int) launched {
	if id < 0 || id >= len(d.tasks) {
		return launched{done: cluster.NoRef}
	}
	return d.tasks[id]
}

// producer returns the node holding a plan entry's data and the reference
// after which it is available.
func (d *Driver) producer(v core.Visible) (int, cluster.Ref) {
	if v.Task == core.InitialTask {
		return d.owner(v.Pts), cluster.NoRef
	}
	l := d.launched(v.Task)
	if l.done == cluster.NoRef {
		panic(fmt.Sprintf("dist: plan references task %d, which was not launched through this driver", v.Task))
	}
	return l.node, l.done
}

// Barrier returns the virtual time at which every launch so far has
// completed — an execution fence, used to delimit the initialization and
// steady-state measurement phases.
func (d *Driver) Barrier() cluster.Time {
	return d.horizon
}

// OwnerByPartition returns an OwnerFunc assigning a space to the node
// owning the lowest-index subregion of p that contains the space's low
// corner (its componentwise minimum, Space.Lo), modulo the machine size;
// node 0 owns an empty space and any space whose low corner lies outside
// p — the usual "analysis state lives with the primary partition"
// placement. The answer depends on the low corner and the dimension
// alone, so the function remembers it per corner: each distinct corner
// costs one BVH query, and the driver's initial-data plan entries, which
// ask again every launch, cost a map hit.
func OwnerByPartition(p *region.Partition, nodes int) core.OwnerFunc {
	return newPartitionOwner(p, nodes).owner
}

// partitionOwner is OwnerByPartition's state. A core.OwnerFunc must be
// goroutine-safe, so the memo is guarded by a mutex; its key is a value,
// so a hit does not allocate.
type partitionOwner struct {
	tree  *bvh.Tree
	subs  []*region.Region
	nodes int

	mu   sync.Mutex
	memo map[corner]int // guarded by mu
}

// corner is what an owner answer reads of a space.
type corner struct {
	lo  geometry.Point
	dim int
}

func newPartitionOwner(p *region.Partition, nodes int) *partitionOwner {
	n := 0
	for _, sub := range p.Subregions {
		n += sub.Space.NumRects()
	}
	inputs := make([]bvh.Input, 0, n)
	for i, sub := range p.Subregions {
		for _, r := range sub.Space.Rects() {
			inputs = append(inputs, bvh.Input{Box: r, ID: i})
		}
	}
	return &partitionOwner{
		tree:  bvh.Build(inputs),
		subs:  p.Subregions,
		nodes: nodes,
		// The applications ask about one to six corners per rectangle.
		memo: make(map[corner]int, len(inputs)),
	}
}

func (o *partitionOwner) owner(sp index.Space) int {
	if sp.IsEmpty() {
		return 0
	}
	k := corner{lo: sp.Lo(), dim: sp.Dim()}
	o.mu.Lock()
	defer o.mu.Unlock()
	n, ok := o.memo[k]
	if !ok {
		n = o.resolve(k)
		o.memo[k] = n
	}
	return n
}

// resolve answers for a corner not asked before.
func (o *partitionOwner) resolve(k corner) int {
	best := -1
	o.tree.Query(geometry.PointRect(k.lo, k.dim), func(i int) {
		if o.subs[i].Space.Contains(k.lo) && (best == -1 || i < best) {
			best = i
		}
	})
	if best == -1 {
		return 0
	}
	return best % o.nodes
}
