package visibility

import (
	"fmt"
	"io"
	"sort"

	"visibility/internal/core"
	"visibility/internal/field"
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
// points touched), derived from the workload rather than measured from
// analyzer internals, so the summary is byte-identical across runs of
// the same workload — even under different analyzers.
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

// fieldName resolves a field ID back to its name by sorted scan — the
// map is tiny and iterating sorted names keeps the output independent
// of map order.
func (ts *treeState) fieldName(id field.ID) string {
	names := make([]string, 0, len(ts.fields))
	for name := range ts.fields {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if ts.fields[name] == id {
			return name
		}
	}
	return fmt.Sprintf("field%d", id)
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
		e.Field = ts.fieldName(r.Field)
		e.SrcPriv = r.SrcPriv.String()
		e.DstPriv = r.DstPriv.String()
		e.Overlap = r.Overlap.String()
	}
	return e
}

// Explain returns the provenance of every incoming dependence edge of
// the given task on the tree containing r. Requires Config.Provenance;
// returns nil when provenance is off, nothing has launched, or task is
// out of range.
//
// confined to runtime-owner
func (rt *Runtime) Explain(r *Region, task int) *TaskExplain {
	ts := r.tree
	if ts.prov == nil || ts.exec == nil || task < 0 || task >= len(ts.stream.Tasks) {
		return nil
	}
	out := &TaskExplain{Task: task, Name: ts.taskName(task), Edges: []EdgeExplain{}}
	for _, reason := range ts.prov.Reasons(task) {
		out.Edges = append(out.Edges, ts.explainEdge(reason))
	}
	return out
}

// weights returns each task's virtual cost (analysis ops + exec points)
// from the provenance cost table.
func (ts *treeState) weights() []float64 {
	out := make([]float64, len(ts.stream.Tasks))
	for i := range out {
		c := ts.prov.Cost(i)
		out[i] = float64(c.AnalysisOps + c.ExecVirt)
	}
	return out
}

// MustPrecede reports whether every legal execution of the tree
// containing r runs task a before task b — a is a transitive dependence
// ancestor of b. Each query is a backward search from b over the
// discovered graph that stops at a. Requires Config.Provenance.
//
// confined to runtime-owner
func (rt *Runtime) MustPrecede(r *Region, a, b int) bool {
	ts := r.tree
	if ts.prov == nil || ts.exec == nil {
		return false
	}
	return ts.dag().MustPrecede(a, b)
}

// CriticalPath computes the weighted critical-path profile of the tree
// containing r: the longest chain under deterministic virtual weights,
// per-level slack, and the top-k heaviest tasks on the chain (k ≤ 0
// returns them all). Requires Config.Provenance; returns nil when
// provenance is off or nothing has launched.
//
// confined to runtime-owner
func (rt *Runtime) CriticalPath(r *Region, k int) *CritSummary {
	ts := r.tree
	if ts.prov == nil || ts.exec == nil {
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
// time-annotated. Requires Config.Provenance.
//
// confined to runtime-owner
func (rt *Runtime) WriteDOTCrit(r *Region, w io.Writer) error {
	ts := r.tree
	if ts.prov == nil || ts.exec == nil {
		return (&graph.DAG{}).WriteDOT(w, nil)
	}
	d := ts.dag()
	return d.WriteDOT(w, d.WeightedCriticalPath(ts.weights()))
}
