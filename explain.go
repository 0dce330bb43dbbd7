package visibility

import (
	"io"
	"slices"

	"visibility/internal/core"
	"visibility/internal/graph"
	"visibility/internal/trace"
)

// EdgeExplain is the provenance of one dependence edge, rendered with
// names resolved and everything stringified deterministically — the
// explain engine's answer to "why does task Dst wait on task Src?".
type EdgeExplain struct {
	Src     int    `json:"src"`
	SrcName string `json:"srcName"`
	Dst     int    `json:"dst"`
	DstName string `json:"dstName"`
	// Kind is "region" (interfering requirement pair found by an
	// analyzer), "future" (explicit ordering edge), or "replay" (edge
	// instantiated from a committed trace).
	Kind     string `json:"kind"`
	Analyzer string `json:"analyzer,omitempty"`
	// Region-interference detail (kind "region").
	SrcReq  int    `json:"srcReq"`
	DstReq  int    `json:"dstReq"`
	Field   string `json:"field,omitempty"`
	SrcPriv string `json:"srcPriv,omitempty"`
	DstPriv string `json:"dstPriv,omitempty"`
	// Overlap bounds the points of Src that Dst still sees. Empty (and
	// omitted) on a region edge without a live witness: every shared point
	// was overwritten before Dst; the edge is conservative.
	Overlap string `json:"overlap,omitempty"`
	// Trace is the committed trace id for kind "replay"; -1 otherwise.
	Trace int `json:"trace"`
}

// TaskExplain is the full provenance of one task's incoming dependence
// edges, ascending by producer ID.
type TaskExplain struct {
	Task  int           `json:"task"`
	Name  string        `json:"name"`
	Edges []EdgeExplain `json:"edges"`
}

// CritTask is one step of the critical path: the task, its deterministic
// virtual weight, and its earliest start/finish under the weights.
type CritTask struct {
	Task   int     `json:"task"`
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
	Start  float64 `json:"start"`
	Finish float64 `json:"finish"`
}

// CritContributor attributes makespan to one critical-path task.
type CritContributor struct {
	Task     int     `json:"task"`
	Name     string  `json:"name"`
	Weight   float64 `json:"weight"`
	SharePct float64 `json:"sharePct"`
}

// CritSummary is the weighted critical-path profile of a discovered
// dependence graph. All times are virtual units (analysis volume +
// points touched), derived from the workload and its discovered graph
// rather than measured from analyzer internals, so the summary is
// byte-identical across runs of the same workload under the same
// analyzer. Analyzers that discover different edge sets can disagree:
// on graphsim paint-naive's path length is 172 against 148 for the other
// three, because the weights count incoming edges (see weights). ROADMAP
// item 6(b) is the fix: weights from the workload alone.
type CritSummary struct {
	Tasks       int               `json:"tasks"`
	Edges       int               `json:"edges"`
	Length      float64           `json:"length"`
	Work        float64           `json:"work"`
	Parallelism float64           `json:"parallelism"`
	Path        []CritTask        `json:"path"`
	Top         []CritContributor `json:"top"`
	LevelSlack  []float64         `json:"levelSlack"`
}

func (ts *treeState) taskName(id int) string {
	if id >= 0 && id < len(ts.stream.Tasks) {
		return ts.stream.Tasks[id].Name
	}
	return ""
}

func (ts *treeState) explainEdge(r core.EdgeReason) EdgeExplain {
	e := EdgeExplain{
		Src: r.Src, SrcName: ts.taskName(r.Src),
		Dst: r.Dst, DstName: ts.taskName(r.Dst),
		Kind: r.Kind.String(), Analyzer: r.Analyzer,
		SrcReq: r.SrcReq, DstReq: r.DstReq, Trace: r.Trace,
	}
	if r.Kind == core.ReasonRegion {
		e.Field = ts.tree.Fields.Name(r.Field)
		e.SrcPriv = r.SrcPriv.String()
		e.DstPriv = r.DstPriv.String()
		if !r.Overlap.Empty() {
			e.Overlap = r.Overlap.String()
		}
	}
	return e
}

// reason derives why task dst waits on src: a future edge when dst
// consumed src's future, a replay edge when dst's analysis was
// instantiated from a trace, and otherwise the requirement pair
// core.RegionReason finds in the stream between them.
func (ts *treeState) reason(src, dst int, replays []trace.Replay) core.EdgeReason {
	if slices.Contains(ts.stream.Tasks[dst].FutureDeps, src) {
		return core.EdgeReason{Src: src, Dst: dst, Kind: core.ReasonFuture, Trace: -1}
	}
	analyzer := core.BaseName(ts.stack.Analyzer.Name())
	if id, ok := trace.ReplayOf(replays, dst); ok {
		return core.EdgeReason{Src: src, Dst: dst, Kind: core.ReasonReplay, Analyzer: analyzer, Trace: id}
	}
	r, _ := core.RegionReason(ts.stream.Tasks, src, dst, analyzer)
	return r
}

// Explain returns the provenance of every incoming dependence edge of
// the given task on the tree containing r, derived from the launch
// stream and the discovered graph; nil when nothing has launched or task
// is out of range.
func (rt *Runtime) Explain(r *Region, task int) *TaskExplain {
	ts := r.tree
	if ts.exec == nil || task < 0 || task >= len(ts.stream.Tasks) {
		return nil
	}
	out := &TaskExplain{Task: task, Name: ts.taskName(task), Edges: []EdgeExplain{}}
	replays := ts.stack.Replays()
	for _, src := range ts.deps[task] {
		out.Edges = append(out.Edges, ts.explainEdge(ts.reason(src, task, replays)))
	}
	return out
}

// weights returns each task's deterministic virtual cost: its analysis
// volume (requirements analyzed plus incoming edges) plus the points its
// requirements touch, a unit-cost virtual execution time. Both are
// properties of the stream and its discovered graph, not of analyzer
// internals, so critical paths weighted by them are byte-reproducible
// across runs of the same workload under the same analyzer. The edge
// count makes them differ across analyzers that emit different edges
// (paint-naive's redundant ones); ROADMAP item 6(b) weights by the
// workload alone.
func (ts *treeState) weights() []float64 {
	out := make([]float64, len(ts.stream.Tasks))
	for i, t := range ts.stream.Tasks {
		w := int64(len(t.Reqs) + len(ts.deps[i]))
		for _, req := range t.Reqs {
			w += req.Region.Space.Volume()
		}
		out[i] = float64(w)
	}
	return out
}

// MustPrecede reports whether every legal execution of the tree
// containing r runs task a before task b — a is a transitive dependence
// ancestor of b. Each query is a backward search from b over the
// discovered graph that stops at a.
func (rt *Runtime) MustPrecede(r *Region, a, b int) bool {
	return r.tree.dag().MustPrecede(a, b)
}

// CriticalPath computes the weighted critical-path profile of the tree
// containing r: the longest chain under deterministic virtual weights,
// per-level slack, and the top-k heaviest tasks on the chain (k ≤ 0
// returns them all). Nil when nothing has launched.
func (rt *Runtime) CriticalPath(r *Region, k int) *CritSummary {
	ts := r.tree
	if ts.exec == nil {
		return nil
	}
	d := ts.dag()
	c := d.WeightedCriticalPath(ts.weights())
	out := &CritSummary{
		Tasks:  len(d.Tasks),
		Edges:  d.Edges(),
		Length: c.Length,
		Work:   c.Work,
		Path:   []CritTask{},
		Top:    []CritContributor{},
	}
	if c.Length > 0 {
		out.Parallelism = c.Work / c.Length
	}
	for _, id := range c.Path {
		out.Path = append(out.Path, CritTask{
			Task: id, Name: ts.taskName(id),
			Weight: c.Weights[id], Start: c.Start[id], Finish: c.Finish[id],
		})
	}
	for _, con := range d.TopContributors(c, k) {
		out.Top = append(out.Top, CritContributor{
			Task: con.Task, Name: con.Name, Weight: con.Weight, SharePct: 100 * con.Share,
		})
	}
	out.LevelSlack = d.LevelSlack(c)
	return out
}

// WriteDOTCrit renders the discovered dependence graph of the tree
// containing r with the weighted critical path highlighted and
// time-annotated.
func (rt *Runtime) WriteDOTCrit(r *Region, w io.Writer) error {
	ts := r.tree
	if ts.exec == nil {
		return (&graph.DAG{}).WriteDOT(w, nil)
	}
	d := ts.dag()
	return d.WriteDOT(w, d.WeightedCriticalPath(ts.weights()))
}
