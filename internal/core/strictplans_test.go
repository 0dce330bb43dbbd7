package core_test

import (
	"strings"
	"testing"

	"visibility/internal/core"
	"visibility/internal/data"
	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/index"
	"visibility/internal/privilege"
	"visibility/internal/region"
)

// planFaker returns a fixed plan for every read/read-write requirement.
type planFaker struct {
	stats core.Stats
	plan  func(t *core.Task, req core.Req) []core.Visible
}

func (f *planFaker) Name() string       { return "faker" }
func (f *planFaker) Stats() *core.Stats { return &f.stats }
func (f *planFaker) Analyze(t *core.Task) *core.Result {
	plans := make([][]core.Visible, len(t.Reqs))
	for ri, req := range t.Reqs {
		if !req.Priv.IsReduce() {
			plans[ri] = f.plan(t, req)
		}
	}
	return &core.Result{Plans: plans}
}

func strictEngine(t *testing.T, f *planFaker) (*core.Engine, *core.Stream) {
	t.Helper()
	fs := field.NewSpace()
	fs.Add("v")
	tree := region.NewTree("A", index.FromRect(geometry.R1(0, 9)), fs)
	init := map[field.ID]*data.Store{0: data.NewStore(tree.Root.Space)}
	init[0].Fill(func(geometry.Point) float64 { return 1 })
	eng := core.NewEngine(tree, f, init)
	eng.StrictPlans = true
	return eng, core.NewStream(tree)
}

func expectPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic = %v, want substring %q", r, want)
		}
	}()
	f()
}

func goodPlan(t *core.Task, req core.Req) []core.Visible {
	return []core.Visible{{
		Task: core.InitialTask, Req: 0,
		Priv: privilege.Writes(), Pts: req.Region.Space,
	}}
}

func TestStrictPlansAcceptsValid(t *testing.T) {
	eng, s := strictEngine(t, &planFaker{plan: goodPlan})
	eng.Launch(s.Launch("r", core.Req{Region: s.Tree.Root, Field: 0, Priv: privilege.Reads()}), core.HashKernel{})
}

func TestStrictPlansRejectsEscape(t *testing.T) {
	f := &planFaker{plan: func(t *core.Task, req core.Req) []core.Visible {
		return []core.Visible{{
			Task: core.InitialTask,
			Priv: privilege.Writes(),
			Pts:  index.FromRect(geometry.R1(0, 50)), // beyond the root
		}}
	}}
	eng, s := strictEngine(t, f)
	expectPanic(t, "escapes", func() {
		eng.Launch(s.Launch("r", core.Req{Region: s.Tree.Root, Field: 0, Priv: privilege.Reads()}), core.HashKernel{})
	})
}

func TestStrictPlansRejectsHoles(t *testing.T) {
	f := &planFaker{plan: func(t *core.Task, req core.Req) []core.Visible {
		return []core.Visible{{
			Task: core.InitialTask,
			Priv: privilege.Writes(),
			Pts:  index.FromRect(geometry.R1(0, 4)), // only half the region
		}}
	}}
	eng, s := strictEngine(t, f)
	expectPanic(t, "holes", func() {
		eng.Launch(s.Launch("r", core.Req{Region: s.Tree.Root, Field: 0, Priv: privilege.Reads()}), core.HashKernel{})
	})
}

func TestStrictPlansRejectsReadEntries(t *testing.T) {
	f := &planFaker{plan: func(t *core.Task, req core.Req) []core.Visible {
		return []core.Visible{{
			Task: core.InitialTask,
			Priv: privilege.Reads(),
			Pts:  req.Region.Space,
		}}
	}}
	eng, s := strictEngine(t, f)
	expectPanic(t, "read privilege", func() {
		eng.Launch(s.Launch("r", core.Req{Region: s.Tree.Root, Field: 0, Priv: privilege.Reads()}), core.HashKernel{})
	})
}

func TestStrictPlansRejectsFutureProducer(t *testing.T) {
	f := &planFaker{plan: func(t *core.Task, req core.Req) []core.Visible {
		return []core.Visible{{
			Task: t.ID, // itself: not a prior task
			Priv: privilege.Writes(),
			Pts:  req.Region.Space,
		}}
	}}
	eng, s := strictEngine(t, f)
	expectPanic(t, "non-prior", func() {
		eng.Launch(s.Launch("r", core.Req{Region: s.Tree.Root, Field: 0, Priv: privilege.Reads()}), core.HashKernel{})
	})
}

func TestStrictPlansRejectsUncommittedProducer(t *testing.T) {
	f := &planFaker{plan: func(t *core.Task, req core.Req) []core.Visible {
		return []core.Visible{{
			Task: 0, Req: 0, // task 0 was a read: committed nothing
			Priv: privilege.Writes(),
			Pts:  req.Region.Space,
		}}
	}}
	eng, s := strictEngine(t, f)
	first := s.Launch("r0", core.Req{Region: s.Tree.Root, Field: 0, Priv: privilege.Reads()})
	// Give task 0 a valid plan by special-casing it.
	inner := f.plan
	f.plan = func(t *core.Task, req core.Req) []core.Visible {
		if t.ID == 0 {
			return goodPlan(t, req)
		}
		return inner(t, req)
	}
	eng.Launch(first, core.HashKernel{})
	expectPanic(t, "uncommitted", func() {
		eng.Launch(s.Launch("r1", core.Req{Region: s.Tree.Root, Field: 0, Priv: privilege.Reads()}), core.HashKernel{})
	})
}
