package core_test

import (
	"strings"
	"testing"

	"visibility/internal/core"
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

// TestChecked holds every rule Checked enforces to a plan that breaks it
// alone. Task 0 writes field v over the low half (0.0), reads v over the
// high half (0.1) and writes field w everywhere (0.2); task 1 reads v
// everywhere with the row's plan.
func TestChecked(t *testing.T) {
	fs := field.NewSpace()
	fs.Add("v")
	fs.Add("w")
	tree := region.NewTree("A", index.FromRect(geometry.R1(0, 9)), fs)
	halves := tree.Root.Partition("H", []index.Space{index.FromRect(geometry.R1(0, 4)), index.FromRect(geometry.R1(5, 9))})
	lo, hi := halves.Subregions[0], halves.Subregions[1]
	initial := core.Visible{Task: core.InitialTask, Priv: privilege.Writes(), Pts: tree.Root.Space}
	from := func(task, req int, pts index.Space) core.Visible {
		return core.Visible{Task: task, Req: req, Priv: privilege.Writes(), Pts: pts}
	}
	for _, tc := range []struct {
		name string
		plan func(t *core.Task) []core.Visible
		want string // panic substring; "" accepts the plan
	}{
		{"accepts-valid", func(*core.Task) []core.Visible { return []core.Visible{initial, from(0, 0, lo.Space)} }, ""},
		{"escape", func(*core.Task) []core.Visible {
			return []core.Visible{{Task: core.InitialTask, Priv: privilege.Writes(), Pts: index.FromRect(geometry.R1(0, 50))}}
		}, "escapes"},
		{"holes", func(*core.Task) []core.Visible { return []core.Visible{from(core.InitialTask, 0, lo.Space)} }, "holes"},
		{"read-entry", func(*core.Task) []core.Visible {
			return []core.Visible{{Task: core.InitialTask, Priv: privilege.Reads(), Pts: tree.Root.Space}}
		}, "read privilege"},
		{"non-prior-producer", func(t *core.Task) []core.Visible { return []core.Visible{from(t.ID, 0, tree.Root.Space)} }, "non-prior"},
		{"missing-requirement", func(*core.Task) []core.Visible { return []core.Visible{initial, from(0, 5, lo.Space)} }, "does not have"},
		{"non-mutating-producer", func(*core.Task) []core.Visible { return []core.Visible{initial, from(0, 1, hi.Space)} }, "does not mutate"},
		{"wrong-field-producer", func(*core.Task) []core.Visible { return []core.Visible{initial, from(0, 2, lo.Space)} }, "on field 1, not 0"},
		{"outside-producer-points", func(*core.Task) []core.Visible { return []core.Visible{initial, from(0, 0, tree.Root.Space)} }, "beyond producer 0.0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			an := core.Checked(&planFaker{plan: func(task *core.Task, req core.Req) []core.Visible {
				if task.ID == 0 {
					return goodPlan(task, req)
				}
				return tc.plan(task)
			}})
			s := core.NewStream(tree)
			an.Analyze(s.Launch("producers",
				core.Req{Region: lo, Field: 0, Priv: privilege.Writes()},
				core.Req{Region: hi, Field: 0, Priv: privilege.Reads()},
				core.Req{Region: tree.Root, Field: 1, Priv: privilege.Writes()}))
			read := s.Launch("r", core.Req{Region: tree.Root, Field: 0, Priv: privilege.Reads()})
			if tc.want == "" {
				an.Analyze(read)
				return
			}
			expectPanic(t, tc.want, func() { an.Analyze(read) })
		})
	}
}
