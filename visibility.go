// Package visibility is an implicitly parallel task runtime built on the
// visibility-based coherence algorithms of Bauer et al., "Visibility
// Algorithms for Dynamic Dependence Analysis and Distributed Coherence"
// (PPoPP 2023).
//
// Programs create regions (collections of points with named fields),
// partition them — any number of times, with overlapping (aliased)
// subregions permitted — and launch tasks that declare read, read-write,
// or reduction privileges on subregions. The runtime dynamically discovers
// dependences between tasks, executes independent tasks in parallel, and
// materializes for every task exactly the data a sequential execution
// would have produced (content-based coherence).
//
// A minimal program:
//
//	rt := visibility.New(visibility.Config{})
//	nodes := rt.CreateRegion("nodes", visibility.Line(0, 99), "v")
//	p := nodes.PartitionEqual("P", 4)
//	for i := 0; i < 4; i++ {
//	    rt.Launch(visibility.TaskSpec{
//	        Name:     "init",
//	        Accesses: []visibility.Access{visibility.Write(p.Sub(i), "v")},
//	        Kernel: visibility.Kernel{Write: func(_ int, pt visibility.Point, _ float64) float64 {
//	            return float64(pt.C[0])
//	        }},
//	    })
//	}
//	rt.Wait()
//
// The coherence algorithm is selectable (ray casting by default, the
// algorithm in production use by Legion; Warnock's algorithm and the
// painter's algorithm are also provided), and Validate mode cross-checks
// every materialized input against a sequential interpreter.
package visibility

import (
	"fmt"
	"sort"

	"visibility/internal/algo"
	"visibility/internal/autotrace"
	"visibility/internal/core"
	"visibility/internal/data"
	"visibility/internal/deppart"
	"visibility/internal/fault"
	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/graph"
	"visibility/internal/index"
	"visibility/internal/obs"
	"visibility/internal/obs/recorder"
	"visibility/internal/privilege"
	"visibility/internal/region"
)

// Point is an n-dimensional integer point; coordinates live in C.
type Point = geometry.Point

// Rect is an axis-aligned rectangle with inclusive bounds.
type Rect = geometry.Rect

// IndexSpace is a sparse set of points.
type IndexSpace = index.Space

// Pt returns a 1-D point.
func Pt(x int64) Point { return geometry.Pt1(x) }

// Pt2 returns a 2-D point.
func Pt2(x, y int64) Point { return geometry.Pt2(x, y) }

// Line returns the 1-D index space [lo, hi].
func Line(lo, hi int64) IndexSpace { return index.FromRect(geometry.R1(lo, hi)) }

// Grid returns the 2-D index space [0,w-1] x [0,h-1].
func Grid(w, h int64) IndexSpace { return index.FromRect(geometry.R2(0, 0, w-1, h-1)) }

// Box returns the 2-D index space with the given inclusive bounds.
func Box(lox, loy, hix, hiy int64) IndexSpace {
	return index.FromRect(geometry.R2(lox, loy, hix, hiy))
}

// Union returns the union of index spaces.
func Union(spaces ...IndexSpace) IndexSpace {
	if len(spaces) == 0 {
		return index.Empty(1)
	}
	out := spaces[0]
	for _, s := range spaces[1:] {
		out = out.Union(s)
	}
	return out
}

// Points returns the index space holding exactly the given 1-D
// coordinates.
func Points(xs ...int64) IndexSpace {
	ps := make([]geometry.Point, len(xs))
	for i, x := range xs {
		ps[i] = geometry.Pt1(x)
	}
	return index.FromPoints(1, ps...)
}

// ReduceOp identifies a reduction operator.
type ReduceOp = privilege.ReduceOp

// Reduction operators with identities, usable with Reduce accesses.
const (
	OpSum  = privilege.OpSum
	OpProd = privilege.OpProd
	OpMin  = privilege.OpMin
	OpMax  = privilege.OpMax
)

// Config configures a Runtime. The zero value is valid: ray casting, no
// validation.
type Config struct {
	// Algorithm selects the coherence algorithm: "raycast" (default),
	// "warnock" or "paint"; any other name is refused.
	Algorithm string
	// Validate additionally runs every task through a sequential
	// interpreter and panics if a materialized input ever diverges —
	// the runtime's self-checking mode.
	Validate bool
	// Deprecated: ignored; kept while benchmarks/visperf still sets it.
	Tracing bool
	// AutoTrace enables automatic trace memoization: the runtime hashes
	// every launch's structure, detects repeating sections of the launch
	// stream online, records their dependence analysis once and replays it
	// afterwards, eliminating the per-launch analysis cost of steady-state
	// loops. Any divergence falls back to direct analysis, so results are
	// identical to an untraced run.
	AutoTrace bool
	// Deprecated: ignored; kept while benchmarks/visperf still sets it.
	Shards int
	// Metrics, when non-nil, is the registry every component of this
	// runtime publishes into: analyzer operation counters appear under
	// "analyzer/<root-region-name>/", tracing outcomes under "trace/".
	// Nil keeps the pre-existing behavior of private per-component
	// registries. The serving layer passes one registry per session so
	// sessions stay observably disjoint.
	Metrics *obs.Registry
	// Spans, when non-nil, receives one "<algorithm>.analyze" span per
	// analyzed launch; a replayed launch records none. Nil disables span
	// recording at zero cost.
	Spans *obs.Buffer
	// Recorder, when non-nil, journals one task_launch line per launch and,
	// with AutoTrace, the trace outcomes. Nil disables journaling at zero cost.
	Recorder *recorder.Recorder
	// Faults, when non-nil, arms the deterministic fault-injection plane's
	// analyzer sites: forced equivalence-set splits and migrations, and
	// forced invalidation of automatic traces. Nil (the default) disables
	// every site.
	Faults *fault.Injector
	// Deprecated: ignored; Explain, MustPrecede, CriticalPath and
	// WriteDOTCrit answer on every Runtime. Kept while benchmarks/visperf
	// still sets it.
	Provenance bool
}

// Runtime is an implicitly parallel runtime instance. Create regions and
// partitions first, then launch tasks; the first launch freezes the
// initial region contents. A Runtime's methods must be called from one
// goroutine at a time (task kernels themselves run in parallel).
// A Runtime and everything it creates (regions, partitions, futures,
// snapshots) belong to whichever goroutine drives it, one launch after
// another in program order: the single-goroutine rule of dynamic
// dependence analysis (§3.2). A caller that hands the Runtime between
// goroutines orders the hand-offs itself, as the analysis service does
// with a per-session mutex. The exported methods are the owner's entry
// points; none of the state below carries a lock.
type Runtime struct {
	cfg     Config
	regions []*Region
	// reqs is Launch's scratch: the stream keeps a copy of a task's
	// requirements.
	reqs []core.Req
}

// New creates a runtime.
func New(cfg Config) *Runtime {
	spec, err := cfg.spec().Check()
	if err != nil {
		panic(fmt.Sprintf("visibility: %v", err))
	}
	cfg.Algorithm = spec.Algorithm
	return &Runtime{cfg: cfg}
}

// spec is the analysis stack cfg's flat fields describe.
func (cfg Config) spec() algo.Spec {
	return algo.Spec{Algorithm: cfg.Algorithm, AutoTrace: cfg.AutoTrace}
}

// Region is a logical region: an index space with named fields, possibly a
// subregion of a partition.
type Region struct {
	rt   *Runtime
	tree *treeState
	reg  *region.Region
}

// Partition is an array of subregions of a region.
type Partition struct {
	r *Region
	p *region.Partition
}

type treeState struct {
	tree   *region.Tree
	init   map[field.ID]*data.Store // the initial contents; nil once frozen (see freeze)
	stream *core.Stream
	// graph is the discovered dependence graph: one row (core.Row) and
	// one critical-path label per launch in program order, both fixed at
	// launch, so every graph query reads it as it stands.
	graph  graph.Graph
	exec   *core.Executor
	seq    *core.Seq   // non-nil in Validate mode
	stack  *algo.Stack // the analyzer exec drives; nil until frozen
	frozen bool
}

// CreateRegion creates a top-level region over space with the given
// fields; name must be unique among the runtime's roots. Every field
// starts zero-filled; use Fill or Init to set initial contents before the
// first launch.
func (rt *Runtime) CreateRegion(name string, space IndexSpace, fields ...string) *Region {
	if len(fields) == 0 {
		panic("visibility: a region needs at least one field")
	}
	if rt.Region(name) != nil {
		panic(fmt.Sprintf("visibility: a root region named %q already exists", name))
	}
	fs := field.NewSpace()
	for _, f := range fields {
		fs.Add(f)
	}
	ts := &treeState{tree: region.NewTree(name, space, fs), init: make(map[field.ID]*data.Store)}
	for id := field.ID(0); int(id) < fs.Len(); id++ {
		st := data.NewStore(space)
		st.Fill(func(Point) float64 { return 0 })
		ts.init[id] = st
	}
	r := &Region{rt: rt, tree: ts, reg: ts.tree.Root}
	rt.regions = append(rt.regions, r)
	return r
}

// Region returns the root region created with the given name, or nil.
func (rt *Runtime) Region(name string) *Region {
	for _, r := range rt.regions {
		if r.reg.Name == name {
			return r
		}
	}
	return nil
}

// Space returns the region's index space.
func (r *Region) Space() IndexSpace { return r.reg.Space }

// Name returns the region's name.
func (r *Region) Name() string { return r.reg.Name }

// Fields returns the field names of r's tree, sorted.
func (r *Region) Fields() []string {
	fs := r.tree.tree.Fields
	names := make([]string, fs.Len())
	for i := range names {
		names[i] = fs.Name(field.ID(i))
	}
	sort.Strings(names)
	return names
}

// HasField reports whether r's tree declares the named field.
func (r *Region) HasField(name string) bool {
	_, ok := r.tree.tree.Fields.Lookup(name)
	return ok
}

// Fill sets every element of a field of this region's points to v. Only
// valid before the first task launch on the region's tree.
func (r *Region) Fill(fieldName string, v float64) *Region {
	return r.Init(fieldName, func(Point) float64 { return v })
}

// Init sets initial contents of a field from a function of the point.
// Only valid before the first task launch on the region's tree.
func (r *Region) Init(fieldName string, f func(Point) float64) *Region {
	if r.tree.frozen {
		panic("visibility: cannot set initial contents after tasks have launched")
	}
	vals := data.NewStore(r.reg.Space)
	vals.Fill(f)
	r.tree.init[r.fieldID(fieldName)].CopyFrom(vals, r.reg.Space)
	return r
}

func (r *Region) fieldID(name string) field.ID {
	id, ok := r.tree.tree.Fields.Lookup(name)
	if !ok {
		panic(fmt.Sprintf("visibility: region %s has no field %q", r.reg.Name, name))
	}
	return id
}

// Partition creates a partition of r from explicit pieces. Pieces may
// overlap (an aliased partition, e.g. ghost regions) and need not cover r.
func (r *Region) Partition(name string, pieces []IndexSpace) *Partition {
	return &Partition{r: r, p: r.reg.Partition(name, pieces)}
}

// PartitionEqual partitions r into n equal contiguous blocks by row-major
// position — a disjoint, complete partition.
func (r *Region) PartitionEqual(name string, n int) *Partition {
	vol := r.reg.Space.Volume()
	if n <= 0 || int64(n) > vol {
		panic(fmt.Sprintf("visibility: cannot split %d points into %d pieces", vol, n))
	}
	pieces := make([]IndexSpace, n)
	var pts []Point
	i := 0
	r.reg.Space.Each(func(p Point) bool {
		pts = append(pts, p)
		// Piece i takes positions [i*vol/n, (i+1)*vol/n).
		if int64(len(pts)) == (int64(i)+1)*vol/int64(n)-int64(i)*vol/int64(n) {
			pieces[i] = index.FromPoints(r.reg.Space.Dim(), pts...)
			pts = nil
			i++
		}
		return true
	})
	return r.Partition(name, pieces)
}

// PartitionImage computes a dependent partition (Treichler et al.,
// OOPSLA'16): piece i of the result holds the points of r that piece i of
// src maps to under rel. This is how ghost partitions are derived from
// connectivity — e.g. the image of each graph piece under the
// edge-neighbor relation, minus the piece itself.
func (r *Region) PartitionImage(name string, src *Partition, rel func(Point) []Point) *Partition {
	pieces := make([]IndexSpace, src.Len())
	for i := range pieces {
		pieces[i] = src.p.Subregions[i].Space
	}
	img := deppart.Image(pieces, deppart.Relation(rel), r.reg.Space, r.reg.Space.Dim())
	return r.Partition(name, img)
}

// PartitionPreimage computes the dependent partition whose piece i holds
// the points of r whose image under rel intersects piece i of dst.
func (r *Region) PartitionPreimage(name string, dst *Partition, rel func(Point) []Point) *Partition {
	targets := make([]IndexSpace, dst.Len())
	for i := range targets {
		targets[i] = dst.p.Subregions[i].Space
	}
	pre := deppart.Preimage(r.reg.Space, deppart.Relation(rel), targets, r.reg.Space.Dim())
	return r.Partition(name, pre)
}

// PartitionByColor partitions r into n pieces by a coloring function;
// points colored outside [0,n) belong to no piece.
func (r *Region) PartitionByColor(name string, n int, color func(Point) int) *Partition {
	return r.Partition(name, deppart.ByColor(r.reg.Space, n, color))
}

// Minus returns a new partition of the same parent whose piece i is
// p's piece i minus o's piece i (pairwise difference; p and o must have
// the same length).
func (p *Partition) Minus(name string, o *Partition) *Partition {
	if p.Len() != o.Len() {
		panic("visibility: Minus requires partitions of equal length")
	}
	a := make([]IndexSpace, p.Len())
	b := make([]IndexSpace, o.Len())
	for i := range a {
		a[i] = p.p.Subregions[i].Space
		b[i] = o.p.Subregions[i].Space
	}
	return p.r.Partition(name, deppart.Difference(a, b))
}

// Sub returns the i-th subregion.
func (p *Partition) Sub(i int) *Region {
	return &Region{rt: p.r.rt, tree: p.r.tree, reg: p.p.Subregions[i]}
}

// Len returns the number of subregions.
func (p *Partition) Len() int { return len(p.p.Subregions) }

// Disjoint reports whether no two subregions share a point.
func (p *Partition) Disjoint() bool { return p.p.Disjoint }

// Complete reports whether the subregions cover the parent region.
func (p *Partition) Complete() bool { return p.p.Complete }

// Access declares how a task touches one region's field.
type Access struct {
	Region *Region
	Field  string
	priv   privilege.Privilege
}

// Read declares read-only access.
func Read(r *Region, field string) Access {
	return Access{Region: r, Field: field, priv: privilege.Reads()}
}

// Write declares read-write access.
func Write(r *Region, field string) Access {
	return Access{Region: r, Field: field, priv: privilege.Writes()}
}

// Reduce declares reduction access with operator op.
func Reduce(op ReduceOp, r *Region, field string) Access {
	return Access{Region: r, Field: field, priv: privilege.Reduces(op)}
}

// Kernel is the computation a task performs, as pure per-point functions.
//
// Write is called for every point of each Write access with the current
// value and returns the new value. Reduce is called for every point of
// each Reduce access and returns the task's contribution (folded with the
// access's operator). Read accesses are materialized and passed to Body.
// Nil members are treated as identity (Write keeps the input, Reduce
// contributes the operator identity).
//
// Write, Reduce and Body run on executor goroutines, concurrently
// with the goroutine that owns the Runtime. They must not call Runtime,
// Region or Partition methods, nor read state the owner mutates. Nothing
// checks this rule; breaking it shows only as an intermittent race.
type Kernel struct {
	Write  func(access int, p Point, in float64) float64
	Reduce func(access int, p Point) float64
	// Body, if non-nil, runs once per task execution with the
	// materialized inputs of every Read and Write access (indexed by
	// access position; Reduce accesses have nil inputs).
	Body func(inputs []*Snapshot)
}

// Snapshot is a read-only view of materialized region contents.
type Snapshot struct{ st *data.Store }

// Get returns the value at p; ok reports whether p is defined.
func (s *Snapshot) Get(p Point) (float64, bool) {
	if s == nil || s.st == nil {
		return 0, false
	}
	return s.st.Get(p)
}

// Len returns the number of defined points.
func (s *Snapshot) Len() int {
	if s == nil || s.st == nil {
		return 0
	}
	return s.st.Len()
}

// Each visits every defined point in deterministic order.
func (s *Snapshot) Each(f func(Point, float64)) {
	if s == nil || s.st == nil {
		return
	}
	s.st.Each(f)
}

// Rows returns one (coordinates..., value) row per defined point, in Each
// order — the form snapshots and checkpoints carry. The rows share one
// backing array.
func (s *Snapshot) Rows() [][]float64 {
	n := s.Len()
	if n == 0 {
		return nil
	}
	w := s.st.Dim() + 1
	flat := make([]float64, 0, n*w)
	rows := make([][]float64, 0, n)
	s.Each(func(p Point, v float64) {
		for a := 0; a < w-1; a++ {
			flat = append(flat, float64(p.C[a]))
		}
		flat = append(flat, v)
		rows = append(rows, flat[len(flat)-w:len(flat):len(flat)])
	})
	return rows
}

// TaskSpec describes one task launch.
type TaskSpec struct {
	Name     string
	Accesses []Access
	Kernel   Kernel
	// After lists futures of earlier tasks this task must wait for —
	// scalar-result (ordering) dependences that carry no region data,
	// like Legion futures.
	After []Future
}

// Future is a task completion handle and, when passed in TaskSpec.After,
// an explicit ordering dependence.
type Future struct {
	done   <-chan struct{} // closed once the task has executed
	taskID int
}

// Wait blocks until the task has executed.
func (f Future) Wait() { <-f.done }

// Done reports whether the task has executed.
func (f Future) Done() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// Launch submits a task. The dependence analysis observes launches in call
// order (program order); execution is parallel, constrained only by
// discovered dependences. Launch returns immediately.
func (rt *Runtime) Launch(spec TaskSpec) Future {
	if len(spec.Accesses) == 0 {
		panic("visibility: task needs at least one access")
	}
	ts := spec.Accesses[0].Region.tree
	rt.freeze(ts)

	rt.reqs = rt.reqs[:0]
	for _, a := range spec.Accesses {
		if a.Region.tree != ts {
			panic("visibility: all accesses of one task must target the same region tree")
		}
		rt.reqs = append(rt.reqs, core.Req{Region: a.Region.reg, Field: a.Region.fieldID(a.Field), Priv: a.priv})
	}
	t := ts.stream.Launch(spec.Name, rt.reqs...)
	for _, f := range spec.After {
		t.FutureDeps = append(t.FutureDeps, f.taskID)
	}

	k := &kernelAdapter{k: spec.Kernel}

	// In Validate mode, replay through the sequential interpreter first
	// (on the launching goroutine, in program order) and take the
	// expected inputs; the parallel execution checks against that private
	// copy, so no shared interpreter state is touched from runners.
	var want []*data.Store
	if ts.seq != nil {
		var seqBody func([]*data.Store)
		if spec.Kernel.Body != nil {
			seqBody = func(inputs []*data.Store) { spec.Kernel.Body(snapshots(inputs)) }
		}
		want = ts.seq.RunBody(t, k, seqBody)
	}

	var body func([]*data.Store)
	if spec.Kernel.Body != nil || want != nil {
		body = func(inputs []*data.Store) {
			if want != nil {
				validate(t, want, inputs)
			}
			if spec.Kernel.Body != nil {
				spec.Kernel.Body(snapshots(inputs))
			}
		}
	}
	// The executor runs t; t's row of the dependence graph, which Explain
	// later derives from, is added with its critical-path label.
	done, row := ts.exec.Submit(t, k, body)
	ts.graph.Add(weight(t), row)
	return Future{done: done, taskID: t.ID}
}

func snapshots(inputs []*data.Store) []*Snapshot {
	snaps := make([]*Snapshot, len(inputs))
	for i, st := range inputs {
		if st != nil {
			snaps[i] = &Snapshot{st: st}
		}
	}
	return snaps
}

func validate(t *core.Task, want, got []*data.Store) {
	for ri, req := range t.Reqs {
		if req.Priv.IsReduce() {
			continue
		}
		if !want[ri].Equal(got[ri]) {
			panic(fmt.Sprintf("visibility: validation failed for %v access %d:\n%s",
				t, ri, want[ri].Diff(got[ri])))
		}
	}
}

// freeze builds the executor on first launch and hands it the initial
// contents, which the tree then drops: the executor (and the Validate
// interpreter) keep their own copies.
func (rt *Runtime) freeze(ts *treeState) {
	if ts.frozen {
		return
	}
	ts.frozen = true
	opts := core.Options{Metrics: rt.cfg.Metrics, Spans: rt.cfg.Spans, Recorder: rt.cfg.Recorder, Faults: rt.cfg.Faults}
	ts.stack = rt.cfg.spec().Build(ts.tree, opts)
	if rt.cfg.Metrics != nil {
		// Computed metrics are read live at snapshot time, under the
		// root's name, which is unique in the runtime.
		ts.stack.Analyzer.Stats().RegisterMetrics(rt.cfg.Metrics, "analyzer/"+ts.tree.Root.Name)
	}
	ts.stream = core.NewStream(ts.tree)
	ts.exec = core.NewExecutor(ts.stack.Analyzer, ts.init, rt.cfg.Recorder)
	if rt.cfg.Validate {
		ts.seq = core.NewSeq(ts.init)
	}
	ts.init = nil
}

// BeginTrace does nothing: Config.AutoTrace finds repeating sections of
// the launch stream itself.
//
// Deprecated: ignored; kept while benchmarks/visperf still calls it.
func (rt *Runtime) BeginTrace(*Region, int) {}

// EndTrace does nothing, like BeginTrace.
//
// Deprecated: ignored; kept while benchmarks/visperf still calls it.
func (rt *Runtime) EndTrace(*Region) {}

// AutoTraceStats returns the automatic tracer's outcome counters for r's
// tree (zero when Config.AutoTrace is off or nothing has launched).
func (rt *Runtime) AutoTraceStats(r *Region) autotrace.Stats {
	if r.tree.stack == nil || r.tree.stack.Auto == nil {
		return autotrace.Stats{}
	}
	return r.tree.stack.Auto.AutoStats()
}

// kernelAdapter adapts the public Kernel to the internal core.Kernel.
type kernelAdapter struct{ k Kernel }

func (k *kernelAdapter) WriteValue(_ *core.Task, ri int, p Point, in float64) float64 {
	if k.k.Write == nil {
		return in
	}
	return k.k.Write(ri, p, in)
}

func (k *kernelAdapter) ReduceValue(t *core.Task, ri int, p Point) float64 {
	if k.k.Reduce == nil {
		op := t.Reqs[ri].Priv.Op
		return privilege.Identity(op)
	}
	return k.k.Reduce(ri, p)
}

// Read materializes the current contents of a region's field through the
// coherence algorithm, waiting for every contributing task. It is an
// "inline-read" task launch (an inline mapping) that reads the field, so
// it is analyzed, executed and validated like any other launch.
func (rt *Runtime) Read(r *Region, fieldName string) *Snapshot {
	var got *Snapshot
	rt.Launch(TaskSpec{
		Name:     "inline-read",
		Accesses: []Access{Read(r, fieldName)},
		// In Validate mode the interpreter runs Body first; the runner's
		// call, which the Wait orders before the return, has the last word.
		Kernel: Kernel{Body: func(in []*Snapshot) { got = in[0] }},
	}).Wait()
	return got
}

// Wait blocks until every launched task has completed.
func (rt *Runtime) Wait() {
	for _, r := range rt.regions {
		if r.tree.exec != nil {
			r.tree.exec.Drain()
		}
	}
}

// Close waits for completion, like Wait, and drops the executors. The
// runtime cannot be used afterwards; a runtime that is never closed holds
// no goroutine once it has waited.
func (rt *Runtime) Close() {
	rt.Wait()
	for _, r := range rt.regions {
		r.tree.exec = nil
	}
}

// Stats returns the coherence analyzer's operation counters for the tree
// containing r.
func (rt *Runtime) Stats(r *Region) core.Stats {
	if r.tree.exec == nil {
		return core.Stats{}
	}
	return *r.tree.stack.Analyzer.Stats()
}

// TaskInfo describes one analyzed task launch: its dense ID, name, and the
// direct predecessors the dynamic analysis discovered (analyzer-reported
// region dependences merged with explicit future edges, deduplicated and
// ascending).
type TaskInfo struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
	Deps []int  `json:"deps"`
}

// Dependences returns the dependence graph discovered so far for the tree
// containing r, one entry per launch in program order. It must be called
// from the launching goroutine, like every other Runtime method; nil when
// nothing has launched. Deps slices are the runtime's own rows: read them,
// do not modify them.
func (rt *Runtime) Dependences(r *Region) []TaskInfo {
	ts := r.tree
	if ts.exec == nil {
		return nil
	}
	out := make([]TaskInfo, len(ts.stream.Tasks))
	for i, t := range ts.stream.Tasks {
		out[i] = TaskInfo{ID: t.ID, Name: t.Name, Deps: ts.graph.Rows[i]}
	}
	return out
}
