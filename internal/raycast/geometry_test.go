package raycast_test

import (
	"testing"

	"visibility/internal/apps"
	"visibility/internal/apps/circuit"
	"visibility/internal/apps/pennant"
	"visibility/internal/apps/stencil"
	"visibility/internal/core"
	"visibility/internal/eqset"
	"visibility/internal/fault"
	"visibility/internal/field"
	"visibility/internal/raycast"
	"visibility/internal/testutil"
)

// census is what the interned geometry holds: the nodes and remembered
// cuts reachable from the pieces alone (rooted) and from the pieces plus
// the live sets (all), next to the number of live sets.
type census struct{ rootedNodes, rootedCuts, allNodes, allCuts, live int }

func takeCensus(rc *raycast.RayCast, fields int) census {
	rooted, all := rc.Geometry(false), rc.Geometry(true)
	c := census{rootedNodes: len(rooted), rootedCuts: testutil.CountCuts(rooted), allNodes: len(all), allCuts: testutil.CountCuts(all)}
	for f := 0; f < fields; f++ {
		c.live += rc.EquivalenceSets(field.ID(f))
	}
	return c
}

// TestGeometryBounded pins that remembering geometry does not grow with
// the length of the run: an iterative program refines along the same lines
// every iteration, so the nodes and cuts reachable after iteration 3 are
// exactly those reachable after iteration 50. Forced cuts are not geometry
// and are never remembered: with every second covered set cut at an
// arbitrary point, the pieces root nothing the unforced run does not, and
// what is reachable beyond them is one childless node per live set.
func TestGeometryBounded(t *testing.T) {
	for _, app := range []struct {
		name  string
		build apps.Builder
	}{{"circuit", circuit.New}, {"stencil", stencil.New}, {"pennant", pennant.New}} {
		run := func(opts core.Options) (at3, at50 census) {
			inst := app.build(16)
			rc := raycast.New(inst.Tree, opts)
			stream := core.NewStream(inst.Tree)
			for iter := 0; iter <= 50; iter++ {
				for _, l := range inst.Emit(stream, iter) {
					rc.Analyze(l.Task)
				}
				if iter == 3 {
					at3 = takeCensus(rc, inst.Tree.Fields.Len())
				}
			}
			return at3, takeCensus(rc, inst.Tree.Fields.Len())
		}
		at3, at50 := run(core.Options{})
		if at3 != at50 || at50.rootedCuts == 0 {
			t.Errorf("%s: geometry after iteration 3 %+v, after iteration 50 %+v; want equal and populated", app.name, at3, at50)
		}
		inj, err := fault.NewFromString("seed=7;analyzer.eqset.split=p=0.5")
		if err != nil {
			t.Fatal(err)
		}
		_, forced := run(core.Options{Faults: inj})
		if inj.Fires(fault.EqSplit) == 0 {
			t.Errorf("%s: no split was forced", app.name)
		}
		if forced.rootedNodes > at50.rootedNodes || forced.rootedCuts > at50.rootedCuts ||
			forced.allNodes-forced.rootedNodes > forced.live {
			t.Errorf("%s: under forced cuts the geometry is %+v, unforced %+v; want no more rooted, and at most one unrooted node per live set",
				app.name, forced, at50)
		}
	}
}

// assertDropped fails if the store can still reach any node of old.
func assertDropped(t *testing.T, what string, rc *raycast.RayCast, old []*eqset.Node) {
	t.Helper()
	now := make(map[*eqset.Node]bool)
	for _, n := range rc.Geometry(true) {
		now[n] = true
	}
	for _, n := range old {
		if now[n] {
			t.Fatalf("%s: node %v of the replaced acceleration structure is still reachable", what, n.Pts)
		}
	}
}

// TestGeometryDroppedOnMigration forces the three rebuilds of the
// acceleration structure mid-run — the same partition re-bucketed, the
// partition abandoned for the K-d fallback, the fallback rebuilt — and
// checks that each drops every geometry node the old structure held, roots
// and worn alike, and that what the new one remembers resolves afresh.
func TestGeometryDroppedOnMigration(t *testing.T) {
	inst := circuit.New(4)
	rc := raycast.New(inst.Tree, core.Options{Owner: testutil.ShapeOwner})
	stream := core.NewStream(inst.Tree)
	iter := 0
	drive := func() { // two iterations, CheckResolved after every launch
		for stop := iter + 2; iter < stop; iter++ {
			for _, l := range inst.Emit(stream, iter) {
				analyze(t, rc, l.Task)
			}
		}
	}
	for _, step := range []struct {
		what    string
		payload uint64
		kd      bool
	}{{"even payload, same partition", 2, false}, {"odd payload, to K-d", 1, true}, {"K-d rebuilt", 2, true}} {
		drive()
		old := rc.Geometry(true)
		if len(old) == 0 || testutil.CountCuts(old) == 0 {
			t.Fatalf("%s: nothing was remembered before the rebuild", step.what)
		}
		for f := 0; f < inst.Tree.Fields.Len(); f++ {
			rc.ForceMigrate(field.ID(f), step.payload)
			if kd := rc.CurrentPartition(field.ID(f)) == nil; kd != step.kd {
				t.Fatalf("%s: field %d in K-d mode = %v, want %v", step.what, f, kd, step.kd)
			}
		}
		assertDropped(t, step.what, rc, old)
		if err := rc.CheckResolved(); err != nil {
			t.Fatalf("%s: %v", step.what, err)
		}
	}
	drive()
}
