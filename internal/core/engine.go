package core

import (
	"fmt"

	"visibility/internal/data"
	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/index"
	"visibility/internal/privilege"
	"visibility/internal/region"
)

// Engine executes a task stream with real values, driving an Analyzer for
// dependence analysis and coherence. It is the value-level realization of
// run_task (Figure 6): for each launch it asks the analyzer for a
// materialization plan, reconstructs each requirement's input contents from
// the committed outputs of visible producers, runs the kernel, and stores
// the task's outputs for future materializations.
//
// Unlike the sequential interpreter, the engine never holds a single global
// copy of the data: all state lives in per-task committed stores addressed
// by the analyzer's visibility computations, exactly as distributed Legion
// instances would be.
type Engine struct {
	tree *region.Tree
	// an is the dynamic dependence analyzer; Launch drives it in program
	// order on one goroutine (§3.2).
	an   Analyzer
	init map[field.ID]*data.Store

	// committed maps (task, requirement) to the store it produced;
	// mutated by Launch's commit phase with no lock, so no other
	// goroutine may touch it.
	committed map[commitKey]*data.Store

	// Inputs records materialized inputs per task (read and read-write
	// requirements only) when RecordInputs is set.
	RecordInputs bool
	Inputs       map[int][]*data.Store
	// StrictPlans additionally validates every materialization plan's
	// structural invariants (entries within the requested points, no
	// coverage holes, committed producers) and panics on violation —
	// catching analyzer bugs at the launch that triggers them rather
	// than as wrong values downstream.
	StrictPlans bool
}

type commitKey struct {
	task int
	req  int
}

// NewEngine creates an engine running stream tasks through analyzer an with
// the given initial contents per field.
func NewEngine(tree *region.Tree, an Analyzer, init map[field.ID]*data.Store) *Engine {
	e := &Engine{
		tree:      tree,
		an:        an,
		init:      make(map[field.ID]*data.Store, len(init)),
		committed: make(map[commitKey]*data.Store),
		Inputs:    make(map[int][]*data.Store),
	}
	for f, s := range init {
		e.init[f] = s.Clone()
	}
	return e
}

// Analyzer returns the engine's analyzer.
func (e *Engine) Analyzer() Analyzer { return e.an }

// Launch analyzes and executes one task, returning the analysis result.
func (e *Engine) Launch(t *Task, k Kernel) *Result {
	res := e.an.Analyze(t)
	if len(res.Plans) != len(t.Reqs) {
		panic(fmt.Sprintf("core: analyzer %s returned %d plans for %d reqs", e.an.Name(), len(res.Plans), len(t.Reqs)))
	}

	inputs := make([]*data.Store, len(t.Reqs))
	for ri, req := range t.Reqs {
		if req.Priv.IsReduce() {
			// Reductions accumulate into identity-initialized scratch
			// (Figure 7 line 15); no materialization.
			continue
		}
		if e.StrictPlans {
			e.checkPlan(t, ri, req, res.Plans[ri])
		}
		inputs[ri] = Materialize(req, res.Plans[ri], e.source)
	}

	RunKernel(t, k, inputs, func(ri int, out *data.Store) {
		e.committed[commitKey{t.ID, ri}] = out
	})

	if e.RecordInputs {
		e.Inputs[t.ID] = inputs
	}
	return res
}

// Materialize reconstructs the current contents of req's points by applying
// plan in order over undefined storage: write entries copy the producer's
// committed values, reduce entries fold the producer's contributions (paint,
// Figure 7). source returns the store a plan entry's producer committed.
func Materialize(req Req, plan []Visible, source func(Visible, field.ID) *data.Store) *data.Store {
	in := data.NewStore(req.Region.Space)
	for _, v := range plan {
		src := source(v, req.Field)
		switch {
		case v.Priv.IsWrite():
			in.CopyFrom(src, v.Pts)
		case v.Priv.IsReduce():
			in.Fold(src, v.Pts, v.Priv.Op)
		default:
			panic(fmt.Sprintf("core: read entry %v in materialization plan", v))
		}
	}
	return in
}

// RunKernel is the execute-and-commit half of run_task (Figure 6): for
// every write requirement it maps k over the materialized input (an
// undefined point reads as 0, as in Seq), for every reduce requirement it
// folds k's contribution into an identity-initialized buffer (Figure 7
// line 15), and it hands each fresh output store to commit.
func RunKernel(t *Task, k Kernel, inputs []*data.Store, commit func(ri int, out *data.Store)) {
	for ri, req := range t.Reqs {
		switch {
		case req.Priv.IsWrite():
			out := data.NewStore(req.Region.Space)
			out.Map(inputs[ri], func(p geometry.Point, cur float64) float64 {
				return k.WriteValue(t, ri, p, cur)
			})
			commit(ri, out)
		case req.Priv.IsReduce():
			op := req.Priv.Op
			out := data.NewStore(req.Region.Space)
			out.Fill(func(p geometry.Point) float64 {
				return privilege.Apply(op, privilege.Identity(op), k.ReduceValue(t, ri, p))
			})
			commit(ri, out)
		}
	}
}

// checkPlan validates a materialization plan's structural invariants.
func (e *Engine) checkPlan(t *Task, ri int, req Req, plan []Visible) {
	covered := index.Empty(req.Region.Space.Dim())
	for vi, v := range plan {
		if !req.Region.Space.Covers(v.Pts) {
			panic(fmt.Sprintf("core: %s plan for %v req %d entry %d escapes the requested points: %v ⊄ %v",
				e.an.Name(), t, ri, vi, v.Pts, req.Region.Space))
		}
		if v.Priv.IsRead() {
			panic(fmt.Sprintf("core: %s plan for %v req %d entry %d has read privilege", e.an.Name(), t, ri, vi))
		}
		if v.Task != InitialTask {
			if v.Task < 0 || v.Task >= t.ID {
				panic(fmt.Sprintf("core: %s plan for %v req %d references non-prior task %d",
					e.an.Name(), t, ri, v.Task))
			}
			if _, ok := e.committed[commitKey{v.Task, v.Req}]; !ok {
				panic(fmt.Sprintf("core: %s plan for %v req %d references uncommitted %d.%d",
					e.an.Name(), t, ri, v.Task, v.Req))
			}
		}
		if v.Priv.IsWrite() {
			covered = covered.Union(v.Pts)
		}
	}
	// Every requested point must be reachable from some write (possibly
	// the initial contents); reductions alone cannot define a value.
	if !covered.Covers(req.Region.Space) {
		panic(fmt.Sprintf("core: %s plan for %v req %d leaves holes: %v not covered by writes",
			e.an.Name(), t, ri, req.Region.Space.Subtract(covered)))
	}
}

// source returns the committed store a plan entry refers to.
func (e *Engine) source(v Visible, f field.ID) *data.Store {
	if v.Task == InitialTask {
		s := e.init[f]
		if s == nil {
			panic(fmt.Sprintf("core: no initial data for field %d", f))
		}
		return s
	}
	s := e.committed[commitKey{v.Task, v.Req}]
	if s == nil {
		panic(fmt.Sprintf("core: plan references uncommitted producer %d.%d", v.Task, v.Req))
	}
	return s
}
