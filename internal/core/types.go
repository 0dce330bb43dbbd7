// Package core defines the common framework for the visibility-based
// coherence algorithms (paper §4): tasks with privileged region
// requirements, the analyzer contract (materialize/commit folded into a
// single Analyze step per launch), the exact O(n²) reference dependence
// analysis, a sequential ground-truth interpreter implementing the blending
// semantics of §3.1, and the one Executor that drives any analyzer,
// materializes real region contents from its copy plans, and runs the
// kernels it admits in parallel.
package core

import (
	"fmt"
	"sort"

	"visibility/internal/fault"
	"visibility/internal/field"
	"visibility/internal/index"
	"visibility/internal/obs"
	"visibility/internal/obs/recorder"
	"visibility/internal/privilege"
	"visibility/internal/region"
)

// LocalOwner is the owner passed to Probe.Touch for work against state
// that is replicated across the machine (e.g. upper levels of a BVH,
// §6.1): it is charged to whichever node performs the analysis rather
// than to a fixed owner.
const LocalOwner = -1

// InitialTask is the pseudo-task ID representing the initial contents of
// the root region: every analyzer's state is seeded with a full write of
// the root by this task (the [⟨read-write, A⟩] of §5).
const InitialTask = -1

// Req is one region requirement of a task: a logical region, the field
// accessed, and the privilege held.
type Req struct {
	Region *region.Region
	Field  field.ID
	Priv   privilege.Privilege
}

func (r Req) String() string {
	return fmt.Sprintf("%v %s.%d", r.Priv, r.Region.Name, r.Field)
}

// Task is one task launch observed by the dynamic analysis. IDs are dense
// and increase in program (launch) order.
type Task struct {
	ID   int
	Name string
	Reqs []Req
	// FutureDeps are earlier tasks whose scalar results (futures) this
	// task consumes. Futures are opaque to the coherence analysis — they
	// carry no region data — but they are ordering edges the runtime must
	// honor, and on a distributed machine each one is a small message
	// from the producer's node.
	FutureDeps []int
}

func (t *Task) String() string { return fmt.Sprintf("%s#%d", t.Name, t.ID) }

// Stream is an ordered sequence of task launches against one region tree,
// the input to the dynamic analyses (§3.2, Figure 5).
type Stream struct {
	Tree  *region.Tree
	Tasks []*Task

	// Launch's chunks: the stream keeps every task it launches, so no
	// window is wasted.
	tasks Chunk[Task]
	reqs  Chunk[Req]
}

// NewStream creates an empty stream for tree.
func NewStream(tree *region.Tree) *Stream { return &Stream{Tree: tree} }

// Launch appends a task with the given requirements and returns it. The
// task and a copy of reqs are carved from the stream's chunks, so the
// caller may reuse reqs, and an append to the task's Reqs copies.
func (s *Stream) Launch(name string, reqs ...Req) *Task {
	t := s.tasks.New()
	t.ID, t.Name, t.Reqs = len(s.Tasks), name, s.reqs.Clone(reqs)
	s.Tasks = append(s.Tasks, t)
	return t
}

// Visible is one element of a materialization plan: the points of the
// requested region for which the given producer's update is visible, and
// how the producer touched them. Applying a plan's entries in order over
// undefined storage — writes copying values, reductions folding
// contributions — reconstructs the current contents (the paint function of
// §5). Producer InitialTask denotes the root region's initial contents.
type Visible struct {
	Task int // producing task ID, or InitialTask
	Req  int // producing requirement index within that task
	Priv privilege.Privilege
	Pts  index.Space
}

// Result is the outcome of analyzing one task launch. The Result and its
// Deps are the caller's to keep. Its Plans — the header slice and every
// entry under it — are lent: they stay valid until the analyzer's next
// Analyze, so a caller that reads a plan after that call (an executor
// that runs the task later) copies it first.
type Result struct {
	// Deps lists the earlier tasks this launch depends on: deduplicated,
	// ascending, excluding InitialTask. Analyzers may omit edges implied
	// transitively by other reported edges.
	Deps []int
	// Plans holds, for each requirement, the ordered visible updates
	// needed to materialize its input. Requirements with reduce privilege
	// have nil plans: reductions are accumulated into identity-initialized
	// buffers and folded lazily (§5).
	Plans [][]Visible
}

// Analyzer is a coherence and dependence analysis (one of the three
// visibility algorithms, or a reference). Analyze observes the launch of t:
// it computes t's dependences and materialization plans against the current
// state (materialize, Figure 6 line 4) and then records t's own updates
// (commit, line 7). The Result it returns is the caller's except its
// plans, which the next Analyze may overwrite (see Result). Analyzers are
// not safe for concurrent use; the runtime observes launches in program
// order.
type Analyzer interface {
	Name() string
	Analyze(t *Task) *Result
	Stats() *Stats
}

// NewAnalyzerFunc constructs an analyzer over tree with the given
// instrumentation. Every algorithm's constructor has this shape, and so
// does every layer that builds one (algo.New and dist.NewAnalyzerFunc are
// aliases of it).
type NewAnalyzerFunc func(tree *region.Tree, opts Options) Analyzer

// Stats counts the elementary operations an analyzer performs; the
// distributed cost model converts them into simulated time, and the
// experiment harness reports them for ablations.
type Stats struct {
	Launches       int64 // task launches analyzed
	OverlapTests   int64 // index-space overlap/intersection tests
	EntriesScanned int64 // history entries examined
	DepsReported   int64 // dependence edges reported (pre-dedup)

	// Painter-specific.
	ViewsCreated int64 // composite views constructed
	ViewEntries  int64 // entries captured into composite views
	ItemsPruned  int64 // history items deleted by occlusion tests

	// Warnock/ray-casting-specific.
	SetsCreated   int64 // equivalence sets created (refinement or write)
	SetsVisited   int64 // equivalence sets examined during materialize
	SetsCoalesced int64 // equivalence sets removed by dominating writes
	BVHVisited    int64 // acceleration-structure nodes traversed
}

// RegisterMetrics exposes every counter of s on reg as computed metrics
// under prefix (e.g. "analyzer/launches"), read live at snapshot time.
// The fields stay plain int64s incremented by the single-threaded
// analyzers, so the hot paths are untouched; snapshot the registry only
// when the analyzer is quiescent (after a drain or barrier).
func (s *Stats) RegisterMetrics(reg *obs.Registry, prefix string) {
	for _, m := range []struct {
		name string
		v    *int64
	}{
		{"launches", &s.Launches},
		{"overlap_tests", &s.OverlapTests},
		{"entries_scanned", &s.EntriesScanned},
		{"deps_reported", &s.DepsReported},
		{"views_created", &s.ViewsCreated},
		{"view_entries", &s.ViewEntries},
		{"items_pruned", &s.ItemsPruned},
		{"sets_created", &s.SetsCreated},
		{"sets_visited", &s.SetsVisited},
		{"sets_coalesced", &s.SetsCoalesced},
		{"bvh_visited", &s.BVHVisited},
	} {
		v := m.v
		reg.RegisterFunc(prefix+"/"+m.name, func() int64 { return *v })
	}
}

// Ops totals the elementary operation counters — the analyzer's
// deterministic "analysis duration" in virtual units, the same quantity
// the distributed cost model scales into simulated seconds. It weighs
// analysis work only: a launch's node on the critical path weighs its
// requirements plus the points they touch, whatever the analyzer did.
func (s *Stats) Ops() int64 {
	return s.OverlapTests + s.EntriesScanned + s.ViewsCreated + s.ViewEntries +
		s.ItemsPruned + s.SetsCreated + s.SetsVisited + s.SetsCoalesced + s.BVHVisited
}

// Probe receives fine-grained attribution of analysis work to owners of
// distributed state. Owners are small integers assigned by an OwnerFunc
// (typically: the machine node owning a piece of the data); the distributed
// runtime turns cross-node touches into messages and queued work.
type Probe interface {
	// Touch reports ops units of analysis work against state owned by
	// owner: history entry scans, interference tests, set mutations.
	Touch(owner int, ops int64)
	// Visit reports ops traversal steps through replicated acceleration
	// structures (BVH/K-d nodes): much cheaper than Touch work and always
	// local to the analyzing node.
	Visit(ops int64)
	// Fetch reports traversal of an immutable piece of distributed state
	// (a refinement-tree node, a composite view) identified by token and
	// holding ops entries. Replication is on demand (§5.1, §6.1): the
	// first fetch by each analyzing node pays a remote touch of ops work;
	// later fetches by the same node find it cached and cost one visit.
	Fetch(owner int, token int64, ops int64)
}

// NopProbe ignores all touches.
type NopProbe struct{}

// Touch implements Probe.
func (NopProbe) Touch(int, int64) {}

// Visit implements Probe.
func (NopProbe) Visit(int64) {}

// Fetch implements Probe.
func (NopProbe) Fetch(int, int64, int64) {}

// OwnerFunc maps a piece of analysis state (identified by the points it
// covers) to the owner node responsible for it.
type OwnerFunc func(index.Space) int

// Options configures an analyzer's instrumentation. The zero value is
// valid: no probe, everything owned by node 0, a private metrics
// registry, and no span recording.
type Options struct {
	Probe Probe
	Owner OwnerFunc
	// Metrics is the registry components publish counters into. Nil gets
	// a private registry, so instruments always exist; pass a shared
	// registry to collect one snapshot across the whole stack.
	Metrics *obs.Registry
	// Spans receives one "<algorithm>.analyze" span per analyzed launch,
	// recorded by algo.Spec.Build's stack, not the analyzer. Nil disables it.
	Spans *obs.Buffer
	// Recorder journals the autotracer's trace outcomes; an analyzer
	// journals nothing. Nil disables journaling.
	Recorder *recorder.Recorder
	// Faults is the deterministic fault-injection plane. Nil (the default,
	// preserved by Normalize) disables every injection site at the cost of
	// one pointer test.
	Faults *fault.Injector
	// Deprecated: ignored; edge reasons are derived on demand
	// (RegionReason). Kept while benchmarks/visperf still sets it.
	Prov *Provenance
}

// Normalize fills in defaults for nil Probe, Owner and Metrics.
func (o Options) Normalize() Options {
	if o.Probe == nil {
		o.Probe = NopProbe{}
	}
	if o.Owner == nil {
		o.Owner = func(index.Space) int { return 0 }
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	return o
}

// Entry is one recorded operation in an analyzer's history: task Task
// touched the points of its footprint with privilege Priv through its
// Req-th requirement. Entries are the "primitives in the scene" of the
// visibility reduction (§3) and hold no pointer, so a history array is
// nothing for the collector to scan.
type Entry struct {
	Task int
	Req  int32
	// Foot names the footprint: ID+1 of the region whose points the entry
	// touched, or 0 for the points of the equivalence set holding it.
	Foot int32
	Priv privilege.Privilege
}

// SeedEntry returns the initial history entry recording root's starting
// contents.
func SeedEntry(root *region.Region) Entry {
	return Entry{Task: InitialTask, Foot: int32(root.ID) + 1, Priv: privilege.Writes()}
}

// Row returns task t's dependence row, given the dependences an analyzer
// reported for it: those plus t's future edges, deduplicated and
// ascending, in a slice of its own (nil when empty). Every table of
// discovered dependences holds rows built here.
func Row(t *Task, deps []int) []int {
	row := append(make([]int, 0, len(deps)+len(t.FutureDeps)), deps...)
	return DedupDeps(append(row, t.FutureDeps...))
}

// DedupDeps sorts deps ascending, removes duplicates, and drops
// InitialTask.
func DedupDeps(deps []int) []int {
	if len(deps) == 0 {
		return nil
	}
	sort.Ints(deps)
	out := deps[:0]
	for _, d := range deps {
		if d == InitialTask {
			continue
		}
		if len(out) > 0 && out[len(out)-1] == d {
			continue
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
