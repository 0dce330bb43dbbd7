// Package testutil provides shared fixtures for the analyzer test suites:
// the paper's Figure 1/2 graph setup, its Figure 5 task stream, and common
// invariant checks.
package testutil

import (
	"fmt"
	"runtime/debug"
	"slices"
	"testing"

	"visibility/internal/apps"
	"visibility/internal/apps/circuit"
	"visibility/internal/apps/stencil"
	"visibility/internal/core"
	"visibility/internal/data"
	"visibility/internal/eqset"
	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/index"
	"visibility/internal/privilege"
	"visibility/internal/region"
)

// GraphTree builds the Figure 1/2 setup: an 18-node ring region N with
// fields up and down, a disjoint-complete primary partition P into three
// blocks of six, and an aliased ghost partition G of width-4 halos.
func GraphTree() (*region.Tree, *region.Partition, *region.Partition) {
	fs := field.NewSpace()
	fs.Add("up")
	fs.Add("down")
	tree := region.NewTree("N", index.FromRect(geometry.R1(0, 17)), fs)
	p := tree.Root.Partition("P", []index.Space{
		index.FromRect(geometry.R1(0, 5)),
		index.FromRect(geometry.R1(6, 11)),
		index.FromRect(geometry.R1(12, 17)),
	})
	g := tree.Root.Partition("G", []index.Space{
		index.FromRects(1, geometry.R1(14, 17), geometry.R1(6, 9)),
		index.FromRects(1, geometry.R1(2, 5), geometry.R1(12, 15)),
		index.FromRects(1, geometry.R1(8, 11), geometry.R1(0, 3)),
	})
	return tree, p, g
}

// LaunchT1 launches one t1 task of Figure 1 (read-write P[i].up, reduce+
// G[i].down).
func LaunchT1(s *core.Stream, p, g *region.Partition, i int) *core.Task {
	tree := s.Tree
	up, _ := tree.Fields.Lookup("up")
	down, _ := tree.Fields.Lookup("down")
	return s.Launch("t1",
		core.Req{Region: p.Subregions[i], Field: up, Priv: privilege.Writes()},
		core.Req{Region: g.Subregions[i], Field: down, Priv: privilege.Reduces(privilege.OpSum)})
}

// LaunchT2 launches one t2 task of Figure 1 (read-write P[i].down, reduce+
// G[i].up).
func LaunchT2(s *core.Stream, p, g *region.Partition, i int) *core.Task {
	tree := s.Tree
	up, _ := tree.Fields.Lookup("up")
	down, _ := tree.Fields.Lookup("down")
	return s.Launch("t2",
		core.Req{Region: p.Subregions[i], Field: down, Priv: privilege.Writes()},
		core.Req{Region: g.Subregions[i], Field: up, Priv: privilege.Reduces(privilege.OpSum)})
}

// Figure5 launches the nine tasks of Figure 5 into s and returns them.
func Figure5(s *core.Stream, p, g *region.Partition) []*core.Task {
	var out []*core.Task
	for i := 0; i < 3; i++ {
		out = append(out, LaunchT1(s, p, g, i))
	}
	for i := 0; i < 3; i++ {
		out = append(out, LaunchT2(s, p, g, i))
	}
	for i := 0; i < 3; i++ {
		out = append(out, LaunchT1(s, p, g, i))
	}
	return out
}

// FullInit returns initial stores covering the whole root region for every
// field, with distinct deterministic values.
func FullInit(tree *region.Tree) map[field.ID]*data.Store {
	init := make(map[field.ID]*data.Store)
	for f := 0; f < tree.Fields.Len(); f++ {
		st := data.NewStore(tree.Root.Space)
		st.Fill(func(p geometry.Point) float64 {
			return float64(int64(f+1)*1000) + float64(p.C[0]) + 2*float64(p.C[1])
		})
		init[field.ID(f)] = st
	}
	return init
}

// Serial runs launches through an on a core.Executor over init, draining
// after each so that a missing dependence is a deterministic wrong answer
// rather than a race, and collects every task's materialized inputs by
// task ID. launch returns the task's dependence row (core.Row).
func Serial(an core.Analyzer, init map[field.ID]*data.Store) (launch func(*core.Task) []int, inputs map[int][]*data.Store) {
	x := core.NewExecutor(an, init, nil)
	inputs = make(map[int][]*data.Store)
	return func(task *core.Task) []int {
		_, deps := x.Submit(task, core.HashKernel{}, func(in []*data.Store) { inputs[task.ID] = in })
		x.Drain()
		return deps
	}, inputs
}

// Lockstep returns an analyzer that analyzes every launch with an and with
// shadow, a fresh plain analyzer of the same kind fed the same stream, and
// fails t at the first launch whose deps or plans differ. Wrapped around
// an autotracer, it checks every replayed result against the analysis it
// stands for. It is driven from the test goroutine.
func Lockstep(t testing.TB, an, shadow core.Analyzer) core.Analyzer {
	return &lockstep{Analyzer: an, shadow: shadow, t: t}
}

type lockstep struct {
	core.Analyzer
	shadow core.Analyzer
	t      testing.TB
}

func (l *lockstep) Analyze(task *core.Task) *core.Result {
	got := l.Analyzer.Analyze(task)
	want := l.shadow.Analyze(task)
	if !slices.Equal(got.Deps, want.Deps) {
		l.t.Fatalf("%s: %v: deps %v, plain %s computes %v", l.Name(), task, got.Deps, l.shadow.Name(), want.Deps)
	}
	if len(got.Plans) != len(want.Plans) {
		l.t.Fatalf("%s: %v: %d plans, plain %s computes %d", l.Name(), task, len(got.Plans), l.shadow.Name(), len(want.Plans))
	}
	for ri := range want.Plans {
		if !samePlan(got.Plans[ri], want.Plans[ri]) {
			l.t.Fatalf("%s: %v req %d: plan %v, plain %s computes %v", l.Name(), task, ri, got.Plans[ri], l.shadow.Name(), want.Plans[ri])
		}
	}
	return got
}

// samePlan reports whether two plans list the same entries in the same
// order: producer, requirement, privilege and points.
func samePlan(a, b []core.Visible) bool {
	return slices.EqualFunc(a, b, func(v, w core.Visible) bool {
		return v.Task == w.Task && v.Req == w.Req && v.Priv.Same(w.Priv) && v.Pts.Equal(w.Pts)
	})
}

// CheckPartitionInvariant verifies that spaces are pairwise disjoint and
// exactly cover root — the fundamental equivalence-set invariant of §6.
func CheckPartitionInvariant(spaces []index.Space, root index.Space) error {
	union := index.Empty(root.Dim())
	for i, a := range spaces {
		if a.IsEmpty() {
			return fmt.Errorf("equivalence set %d is empty", i)
		}
		for j := i + 1; j < len(spaces); j++ {
			if a.Overlaps(spaces[j]) {
				return fmt.Errorf("equivalence sets %d and %d overlap: %v vs %v", i, j, a, spaces[j])
			}
		}
		union = union.Union(a)
	}
	if !union.Equal(root) {
		return fmt.Errorf("equivalence sets do not cover the root: %v vs %v", union, root)
	}
	return nil
}

// RaceEnabled reports whether the test binary was built with the race
// detector, under which sync.Pool drops items at random and allocation
// counts that depend on pooled buffers are not stable.
func RaceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// ShapeOwner is a core.OwnerFunc for tests that must notice a stale owner:
// it folds a space's low corner and volume onto eight nodes, so a set, its
// fragments and the region that split it rarely share an answer.
func ShapeOwner(sp index.Space) int {
	lo := sp.Lo()
	return int(((lo.C[0]+lo.C[1]+lo.C[2]+3*sp.Volume())%8 + 8) % 8)
}

// SmallApps are the applications the stores' resolved-geometry tests
// drive: circuit (1-D, aliased multi-rectangle ghosts) and stencil (2-D).
var SmallApps = []struct {
	Name  string
	Build apps.Builder
}{{"circuit", circuit.New}, {"stencil", stencil.New}}

// DriveChecked analyzes three iterations of inst's launches with an,
// failing the test at the first launch after which check reports an error.
func DriveChecked(t *testing.T, app string, inst *apps.Instance, an core.Analyzer, check func() error) {
	t.Helper()
	stream := core.NewStream(inst.Tree)
	for iter := 0; iter < 3; iter++ {
		for _, l := range inst.Emit(stream, iter) {
			an.Analyze(l.Task)
			if err := check(); err != nil {
				t.Fatalf("%s: after %v: %v", app, l.Task, err)
			}
		}
	}
}

// Geometry returns every interned geometry node reachable from roots, each
// once, roots first and then cut by cut in region-ID order.
func Geometry(roots []*eqset.Node) []*eqset.Node {
	seen := make(map[*eqset.Node]bool)
	var out []*eqset.Node
	add := func(n *eqset.Node) {
		if n != nil && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for _, n := range roots {
		add(n)
	}
	for i := 0; i < len(out); i++ {
		for _, c := range out[i].Cuts {
			add(c.In)
			add(c.Out)
		}
	}
	return out
}

// CountCuts returns how many cuts nodes remember between them.
func CountCuts(nodes []*eqset.Node) int {
	cuts := 0
	for _, n := range nodes {
		cuts += len(n.Cuts)
	}
	return cuts
}

// CheckFootprints holds hist, the history of a set wearing g, to the eqset
// kernel's invariant: an entry names a region (core.Entry.Foot) only when
// it is a read that region covers part of; every other entry covers the
// whole set.
func CheckFootprints(g *eqset.Node, hist []core.Entry, tree *region.Tree) error {
	for _, e := range hist {
		if e.Foot == 0 {
			continue
		}
		sp := tree.Region(int(e.Foot) - 1).Space
		if !e.Priv.IsRead() || !g.Pts.Overlaps(sp) || sp.Covers(g.Pts) {
			return fmt.Errorf("set %v holds %+v, whose region %v is no read's part of the set", g.Pts, e, sp)
		}
	}
	return nil
}

// CheckGeometry holds everything nodes resolved once to a fresh resolution
// from their points: each remembered cut to the set algebra it stands for
// (Overlaps, Covers, Intersect, Subtract against the region's space), and
// the owner resolved (through the kernel) to fresh's answer.
func CheckGeometry(nodes []*eqset.Node, tree *region.Tree, resolved func(*eqset.Node) int, fresh core.OwnerFunc) error {
	for _, n := range nodes {
		if got, want := resolved(n), fresh(n.Pts); got != want {
			return fmt.Errorf("node %v carries owner %d, its points resolve to %d", n.Pts, got, want)
		}
		for i, c := range n.Cuts {
			if i > 0 && n.Cuts[i-1].Region >= c.Region {
				return fmt.Errorf("node %v remembers its cuts out of region order", n.Pts)
			}
			sp := tree.Region(c.Region).Space
			var ok bool
			switch {
			case c.In == nil:
				ok = c.Out == nil && !n.Pts.Overlaps(sp)
			case c.Out == nil:
				ok = c.In == n && sp.Covers(n.Pts)
			default:
				ok = c.In != n && c.Out != n && c.In.Pts.Equal(n.Pts.Intersect(sp)) && c.Out.Pts.Equal(n.Pts.Subtract(sp)) &&
					!c.In.Pts.IsEmpty() && !c.Out.Pts.IsEmpty()
			}
			if !ok {
				halves := [2]string{"nothing", "nothing"}
				for i, h := range []*eqset.Node{c.In, c.Out} {
					if h != nil {
						halves[i] = h.Pts.String()
					}
				}
				return fmt.Errorf("node %v remembers region %d (%v) cutting it into %s inside and %s outside", n.Pts, c.Region, sp, halves[0], halves[1])
			}
		}
	}
	return nil
}
