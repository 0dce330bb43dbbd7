package raycast_test

import (
	"testing"

	"visibility/internal/core"
	"visibility/internal/fault"
	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/index"
	"visibility/internal/privilege"
	"visibility/internal/raycast"
	"visibility/internal/region"
	"visibility/internal/testutil"
)

// analyze runs one launch and then holds the store to what it resolved once
// from immutable geometry: stored owners and memoized bucket lists must
// equal a fresh resolution (CheckResolved). The stores under it are built
// with testutil.ShapeOwner, which tells a set from its fragments.
func analyze(t *testing.T, rc *raycast.RayCast, task *core.Task) *core.Result {
	t.Helper()
	res := rc.Analyze(task)
	if err := rc.CheckResolved(); err != nil {
		t.Fatalf("after %v: %v", task, err)
	}
	return res
}

// TestDominatingWriteCoalesces reproduces the §7 behavior on the Figure 5
// stream: the ghost-phase reductions refine the up field to nine sets, and
// the second write phase's dominating writes coalesce them back to the
// three primary pieces.
func TestDominatingWriteCoalesces(t *testing.T) {
	tree, p, g := testutil.GraphTree()
	up, _ := tree.Fields.Lookup("up")
	s := core.NewStream(tree)
	rc := raycast.New(tree, core.Options{})

	for _, task := range testutil.Figure5(s, p, g) {
		rc.Analyze(task)
	}
	// After t6-t8 (writes of P[i].up), each P piece is one coalesced set.
	if got := rc.EquivalenceSets(up); got != 3 {
		t.Errorf("after write phase: up sets = %d, want 3 (coalesced)", got)
	}
	if rc.Stats().SetsCoalesced == 0 {
		t.Error("expected dominating writes to coalesce sets")
	}
	if rc.CurrentPartition(up) != p {
		t.Errorf("bucket partition = %v, want P", rc.CurrentPartition(up))
	}

	// The population oscillates between the refined ghost shape and the
	// coalesced write shape but never grows beyond the first iteration's
	// peak — unlike Warnock, whose count would stay at the peak forever.
	peak := 0
	for iter := 0; iter < 5; iter++ {
		for i := 0; i < 3; i++ {
			rc.Analyze(testutil.LaunchT2(s, p, g, i))
		}
		if n := rc.EquivalenceSets(up); n > peak {
			peak = n
		}
		for i := 0; i < 3; i++ {
			rc.Analyze(testutil.LaunchT1(s, p, g, i))
		}
		if got := rc.EquivalenceSets(up); got != 3 {
			t.Errorf("iteration %d: after writes, up sets = %d, want 3", iter, got)
		}
	}
	if peak > 9 {
		t.Errorf("set population peaked at %d, want ≤ 9", peak)
	}
}

// TestInvariantHolds checks disjointness/coverage of the live sets across
// a stream with coalescing.
func TestInvariantHolds(t *testing.T) {
	tree, p, g := testutil.GraphTree()
	s := core.NewStream(tree)
	rc := raycast.New(tree, core.Options{})
	var launches []*core.Task
	launches = append(launches, testutil.Figure5(s, p, g)...)
	for i := 0; i < 3; i++ {
		launches = append(launches, testutil.LaunchT2(s, p, g, i))
	}
	for _, task := range launches {
		rc.Analyze(task)
		for f := 0; f < tree.Fields.Len(); f++ {
			if err := testutil.CheckPartitionInvariant(rc.SetSpaces(field.ID(f)), tree.Root.Space); err != nil {
				t.Fatalf("after %v: %v", task, err)
			}
		}
	}
}

// TestMigration verifies that when the application durably switches to a
// different disjoint-complete partition, the equivalence sets are
// re-bucketed under it (§7.1).
func TestMigration(t *testing.T) {
	fs := field.NewSpace()
	fs.Add("v")
	tree := region.NewTree("A", index.FromRect(geometry.R1(0, 15)), fs)
	p4 := tree.Root.Partition("P4", []index.Space{
		index.FromRect(geometry.R1(0, 3)),
		index.FromRect(geometry.R1(4, 7)),
		index.FromRect(geometry.R1(8, 11)),
		index.FromRect(geometry.R1(12, 15)),
	})
	p2 := tree.Root.Partition("P2", []index.Space{
		index.FromRect(geometry.R1(0, 7)),
		index.FromRect(geometry.R1(8, 15)),
	})

	s := core.NewStream(tree)
	rc := raycast.New(tree, core.Options{Owner: testutil.ShapeOwner})
	for i := 0; i < 4; i++ {
		analyze(t, rc, s.Launch("w", core.Req{Region: p4.Subregions[i], Field: 0, Priv: privilege.Writes()}))
	}
	if rc.CurrentPartition(0) != p4 {
		t.Fatalf("initial partition = %v, want P4", rc.CurrentPartition(0))
	}

	// Switch the application to P2 for many launches: the analyzer must
	// migrate its buckets, and drop the geometry remembered under P4.
	underP4 := rc.Geometry(true)
	for rep := 0; rep < 10; rep++ {
		for i := 0; i < 2; i++ {
			analyze(t, rc, s.Launch("w2", core.Req{Region: p2.Subregions[i], Field: 0, Priv: privilege.Writes()}))
		}
	}
	if rc.CurrentPartition(0) != p2 {
		t.Errorf("after switch: partition = %v, want P2", rc.CurrentPartition(0))
	}
	assertDropped(t, "P4 to P2", rc, underP4)
	if err := testutil.CheckPartitionInvariant(rc.SetSpaces(0), tree.Root.Space); err != nil {
		t.Error(err)
	}
	// Writes through P2 coalesce to its two pieces.
	if got := rc.EquivalenceSets(0); got != 2 {
		t.Errorf("sets after migration + writes = %d, want 2", got)
	}
}

// TestKDFallback verifies correctness when no disjoint-complete partition
// exists: the K-d container carries the sets.
func TestKDFallback(t *testing.T) {
	fs := field.NewSpace()
	fs.Add("v")
	tree := region.NewTree("A", index.FromRect(geometry.R2(0, 0, 7, 7)), fs)
	// Incomplete (hole in the middle) and aliased partitions only.
	q := tree.Root.Partition("Q", []index.Space{
		index.FromRect(geometry.R2(0, 0, 4, 4)),
		index.FromRect(geometry.R2(3, 3, 7, 7)),
	})
	if q.DisjointComplete() {
		t.Fatal("fixture must not be disjoint-complete")
	}

	s := core.NewStream(tree)
	rc := raycast.New(tree, core.Options{Owner: testutil.ShapeOwner})
	analyze(t, rc, s.Launch("w0", core.Req{Region: q.Subregions[0], Field: 0, Priv: privilege.Writes()}))
	analyze(t, rc, s.Launch("r", core.Req{Region: q.Subregions[1], Field: 0, Priv: privilege.Reads()}))
	res := analyze(t, rc, s.Launch("w1", core.Req{Region: q.Subregions[1], Field: 0, Priv: privilege.Writes()}))

	if rc.CurrentPartition(0) != nil {
		t.Error("expected K-d fallback (no partition)")
	}
	// w1 must depend on the overlapping write and the read.
	if len(res.Deps) != 2 || res.Deps[0] != 0 || res.Deps[1] != 1 {
		t.Errorf("w1 deps = %v, want [0 1]", res.Deps)
	}
	if err := testutil.CheckPartitionInvariant(rc.SetSpaces(0), tree.Root.Space); err != nil {
		t.Error(err)
	}
	// Full coherence check through Verify on the same shape.
	s2 := core.NewStream(tree)
	s2.Launch("w0", core.Req{Region: q.Subregions[0], Field: 0, Priv: privilege.Writes()})
	s2.Launch("red", core.Req{Region: q.Subregions[1], Field: 0, Priv: privilege.Reduces(privilege.OpSum)})
	s2.Launch("w1", core.Req{Region: q.Subregions[0], Field: 0, Priv: privilege.Writes()})
	err := core.Verify(s2, testutil.FullInit(tree), core.HashKernel{},
		core.Factory{Name: "raycast", New: func(tr *region.Tree) core.Analyzer {
			return raycast.New(tr, core.Options{})
		}})
	if err != nil {
		t.Error(err)
	}
}

// TestMigrationBetweenMaterializeAndCommit pins the stale-set rule across
// a re-bucketing: a launch reads two pieces of one field, and a forced
// migration on the second requirement's visit replaces every set —
// including the ones the first requirement found — by fresh per-piece
// copies. The first requirement must commit to the live copies, or the
// later writer of its piece loses the write-after-read dependence.
func TestMigrationBetweenMaterializeAndCommit(t *testing.T) {
	for _, seed := range []string{"1", "2", "3", "4"} { // odd/even payloads: K-d fallback and same-partition re-bucket
		tree, p, _ := testutil.GraphTree()
		up, _ := tree.Fields.Lookup("up")
		inj, err := fault.NewFromString("seed=" + seed + ";analyzer.eqset.migrate=every=2,max=1")
		if err != nil {
			t.Fatal(err)
		}
		rc := raycast.New(tree, core.Options{Faults: inj, Owner: testutil.ShapeOwner})
		s := core.NewStream(tree)
		analyze(t, rc, s.Launch("r",
			core.Req{Region: p.Subregions[0], Field: up, Priv: privilege.Reads()},
			core.Req{Region: p.Subregions[1], Field: up, Priv: privilege.Reads()}))
		res := analyze(t, rc, s.Launch("w", core.Req{Region: p.Subregions[0], Field: up, Priv: privilege.Writes()}))
		if inj.Fires(fault.EqMigrate) != 1 {
			t.Fatalf("seed %s: migration fired %d times, want 1", seed, inj.Fires(fault.EqMigrate))
		}
		if len(res.Deps) != 1 || res.Deps[0] != 0 {
			t.Errorf("seed %s: writer deps = %v, want [0] (the reader)", seed, res.Deps)
		}
	}
}

// TestResolvedGeometryUnderFaults drives circuit and stencil through
// forced splits and forced migrations — re-bucketing against the same
// partition and abandoning it for the K-d fallback — and checks after
// every launch that nothing resolved once has gone stale.
func TestResolvedGeometryUnderFaults(t *testing.T) {
	for _, app := range testutil.SmallApps {
		inj, err := fault.NewFromString("seed=7;analyzer.eqset.split=p=0.5;analyzer.eqset.migrate=p=0.1")
		if err != nil {
			t.Fatal(err)
		}
		inst := app.Build(4)
		rc := raycast.New(inst.Tree, core.Options{Faults: inj, Owner: testutil.ShapeOwner})
		testutil.DriveChecked(t, app.Name, inst, rc, rc.CheckResolved)
		if inj.Fires(fault.EqSplit) == 0 || inj.Fires(fault.EqMigrate) == 0 {
			t.Errorf("%s: %d forced splits, %d forced migrations: the plan must arm both",
				app.Name, inj.Fires(fault.EqSplit), inj.Fires(fault.EqMigrate))
		}
	}
}
