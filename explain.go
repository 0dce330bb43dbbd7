package visibility

import (
	"io"
	"slices"

	"visibility/internal/core"
	"visibility/internal/graph"
)

// EdgeExplain is the provenance of one dependence edge, rendered with
// names resolved and everything stringified deterministically — the
// explain engine's answer to "why does task Dst wait on task Src?".
type EdgeExplain struct {
	Src     int    `json:"src"`
	SrcName string `json:"srcName"`
	Dst     int    `json:"dst"`
	DstName string `json:"dstName"`
	// Kind is "region" (an interfering requirement pair), "future" (an
	// explicit ordering edge), or "none" (no requirement pair interferes).
	Kind string `json:"kind"`
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
// dependence graph. All times are virtual units (requirements + points
// touched, see weight), so the profile is a property of the workload:
// byte-identical across runs, analyzers and replayed launches.
type CritSummary struct {
	Tasks       int               `json:"tasks"`
	Length      float64           `json:"length"`
	Work        float64           `json:"work"`
	Parallelism float64           `json:"parallelism"`
	Path        []CritTask        `json:"path"`
	Top         []CritContributor `json:"top"`
}

// weight is task t's deterministic virtual cost: its requirements plus
// the points they touch, a unit-cost virtual execution time. It reads the
// task alone, not the row an analyzer found for it, since analyzers may
// differ in transitively implied edges (§3.2) but not in the precedence
// order, which fixes the critical path.
func weight(t *core.Task) float64 {
	w := int64(len(t.Reqs))
	for _, req := range t.Reqs {
		w += req.Region.Space.Volume()
	}
	return float64(w)
}

// explainEdge explains why task dst waits on src: a future edge when dst
// consumed src's future, and otherwise the requirement pair
// core.RegionReason finds in the stream between them. Both are
// properties of the workload, so an edge explains alike whichever stack
// found it, analyzed or replayed.
func (ts *treeState) explainEdge(src, dst int) EdgeExplain {
	tasks := ts.stream.Tasks
	e := EdgeExplain{Src: src, SrcName: tasks[src].Name, Dst: dst, DstName: tasks[dst].Name, Kind: "future"}
	if slices.Contains(tasks[dst].FutureDeps, src) {
		return e
	}
	si, di, overlap := core.RegionReason(tasks, src, dst)
	if si < 0 {
		e.Kind = "none"
		return e
	}
	sq, dq := tasks[src].Reqs[si], tasks[dst].Reqs[di]
	e.Kind, e.SrcReq, e.DstReq = "region", si, di
	e.Field = ts.tree.Fields.Name(dq.Field)
	e.SrcPriv, e.DstPriv = sq.Priv.String(), dq.Priv.String()
	if !overlap.Empty() {
		e.Overlap = overlap.String()
	}
	return e
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
	out := &TaskExplain{Task: task, Name: ts.stream.Tasks[task].Name, Edges: []EdgeExplain{}}
	for _, src := range ts.graph.Rows[task] {
		out.Edges = append(out.Edges, ts.explainEdge(src, task))
	}
	return out
}

// MustPrecede reports whether every legal execution of the tree
// containing r runs task a before task b — a is a transitive dependence
// ancestor of b. A b whose smallest ancestor, fixed at launch, is above a
// answers at once; otherwise the query searches back from b over the
// discovered graph and stops at a.
func (rt *Runtime) MustPrecede(r *Region, a, b int) bool {
	return r.tree.graph.MustPrecede(a, b)
}

// CriticalPath returns the weighted critical-path profile of the tree
// containing r: the longest chain under deterministic virtual weights
// (ties broken to the smallest task ID) and the top-k heaviest tasks on
// it, descending by weight (k ≤ 0 returns them all). It reads the labels
// fixed at launch, so its cost is the path's, not the session's. Nil when
// nothing has launched.
func (rt *Runtime) CriticalPath(r *Region, k int) *CritSummary {
	ts := r.tree
	if ts.exec == nil {
		return nil
	}
	c := &ts.graph
	out := &CritSummary{
		Tasks:  len(c.Labels),
		Length: c.Length,
		Work:   c.Work,
		Path:   []CritTask{},
		Top:    []CritContributor{},
	}
	if c.Length > 0 {
		out.Parallelism = c.Work / c.Length
	}
	path := c.Path()
	var start float64
	for _, s := range path {
		out.Path = append(out.Path, CritTask{Task: s.Task, Name: ts.stream.Tasks[s.Task].Name, Weight: s.Weight, Start: start, Finish: s.Finish})
		start = s.Finish
	}
	for _, s := range graph.Top(path, k) {
		out.Top = append(out.Top, CritContributor{Task: s.Task, Name: ts.stream.Tasks[s.Task].Name, Weight: s.Weight, SharePct: 100 * (s.Weight / c.Length)})
	}
	return out
}

// WriteDOTCrit renders the discovered dependence graph of the tree
// containing r with the weighted critical path highlighted and
// time-annotated.
func (rt *Runtime) WriteDOTCrit(r *Region, w io.Writer) error {
	ts := r.tree
	if ts.exec == nil {
		return ts.graph.WriteDOT(w, nil, nil)
	}
	return ts.graph.WriteDOT(w, ts.stream.Tasks, ts.graph.Path())
}
