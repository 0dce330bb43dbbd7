package crosscheck

import (
	"testing"

	"visibility/internal/core"
	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/index"
	"visibility/internal/privilege"
	"visibility/internal/region"
	"visibility/internal/testutil"
	"visibility/internal/warnock"
)

// Targeted scenarios that stress specific algorithm mechanisms beyond the
// random streams: deep nesting, root-region writes, partition migration,
// K-d fallback, and long histories of mixed privileges.

func verifyAll(t *testing.T, s *core.Stream) {
	t.Helper()
	if err := core.Verify(s, testutil.FullInit(s.Tree), core.HashKernel{}, allFactories()...); err != nil {
		t.Fatal(err)
	}
}

// TestDeepNesting builds a three-level region tree and runs tasks at every
// level, including interleaved coarse and fine accesses that force the
// painter to hoist child histories into its own node's views.
func TestDeepNesting(t *testing.T) {
	fs := field.NewSpace()
	fs.Add("v")
	tree := region.NewTree("A", index.FromRect(geometry.R1(0, 63)), fs)
	top := tree.Root.Partition("T", []index.Space{
		index.FromRect(geometry.R1(0, 31)),
		index.FromRect(geometry.R1(32, 63)),
	})
	var leaves []*region.Region
	for _, sub := range top.Subregions {
		b := sub.Space.Bounds()
		mid := sub.Partition("M", []index.Space{
			index.FromRect(geometry.R1(b.Lo.C[0], b.Lo.C[0]+15)),
			index.FromRect(geometry.R1(b.Lo.C[0]+16, b.Hi.C[0])),
		})
		for _, m := range mid.Subregions {
			mb := m.Space.Bounds()
			bot := m.Partition("B", []index.Space{
				index.FromRect(geometry.R1(mb.Lo.C[0], mb.Lo.C[0]+7)),
				index.FromRect(geometry.R1(mb.Lo.C[0]+8, mb.Hi.C[0])),
			})
			leaves = append(leaves, bot.Subregions...)
		}
	}

	s := core.NewStream(tree)
	w := func(r *region.Region) {
		s.Launch("w", core.Req{Region: r, Field: 0, Priv: privilege.Writes()})
	}
	rd := func(r *region.Region) {
		s.Launch("r", core.Req{Region: r, Field: 0, Priv: privilege.Reads()})
	}
	// Fine writes, coarse read, coarse write, fine reads, root ops.
	for _, l := range leaves {
		w(l)
	}
	rd(top.Subregions[0])
	w(top.Subregions[1])
	for _, l := range leaves {
		rd(l)
	}
	w(tree.Root)
	rd(leaves[3])
	for _, l := range leaves {
		w(l)
	}
	rd(tree.Root)
	verifyAll(t, s)
}

// TestRootWritesOccludeEverything interleaves piece-level churn with full
// root writes — the dominating-write fast path and the painter's
// whole-node pruning.
func TestRootWritesOccludeEverything(t *testing.T) {
	tree, p, g := testutil.GraphTree()
	up, _ := tree.Fields.Lookup("up")
	s := core.NewStream(tree)
	for round := 0; round < 3; round++ {
		for i := 0; i < 3; i++ {
			s.Launch("w", core.Req{Region: p.Subregions[i], Field: up, Priv: privilege.Writes()})
			s.Launch("red", core.Req{Region: g.Subregions[i], Field: up, Priv: privilege.Reduces(privilege.OpSum)})
		}
		s.Launch("wipe", core.Req{Region: tree.Root, Field: up, Priv: privilege.Writes()})
	}
	s.Launch("check", core.Req{Region: tree.Root, Field: up, Priv: privilege.Reads()})
	verifyAll(t, s)
}

// TestPartitionMigrationStream switches between two disjoint-complete
// partitions mid-stream, forcing the ray-casting analyzer to re-bucket.
func TestPartitionMigrationStream(t *testing.T) {
	fs := field.NewSpace()
	fs.Add("v")
	tree := region.NewTree("A", index.FromRect(geometry.R1(0, 63)), fs)
	fine := make([]index.Space, 8)
	for i := range fine {
		fine[i] = index.FromRect(geometry.R1(int64(i)*8, int64(i+1)*8-1))
	}
	coarse := []index.Space{
		index.FromRect(geometry.R1(0, 31)),
		index.FromRect(geometry.R1(32, 63)),
	}
	pf := tree.Root.Partition("fine", fine)
	pc := tree.Root.Partition("coarse", coarse)

	s := core.NewStream(tree)
	for round := 0; round < 3; round++ {
		for i := 0; i < 8; i++ {
			s.Launch("wf", core.Req{Region: pf.Subregions[i], Field: 0, Priv: privilege.Writes()})
		}
		// Sustained use of the coarse partition (longer than the
		// migration threshold) with reads in between.
		for k := 0; k < 12; k++ {
			s.Launch("rc", core.Req{Region: pc.Subregions[k%2], Field: 0, Priv: privilege.Reads()})
			s.Launch("wc", core.Req{Region: pc.Subregions[k%2], Field: 0, Priv: privilege.Writes()})
		}
	}
	verifyAll(t, s)
}

// TestKDFallbackStream runs a full mixed stream on a tree with no
// disjoint-complete partition at all.
func TestKDFallbackStream(t *testing.T) {
	fs := field.NewSpace()
	fs.Add("v")
	fs.Add("w")
	tree := region.NewTree("A", index.FromRect(geometry.R2(0, 0, 15, 15)), fs)
	q := tree.Root.Partition("Q", []index.Space{
		index.FromRect(geometry.R2(0, 0, 9, 9)),
		index.FromRect(geometry.R2(6, 6, 15, 15)),
		index.FromRect(geometry.R2(0, 10, 5, 15)),
	})
	for _, p := range tree.Root.Partitions {
		if p.DisjointComplete() {
			t.Fatal("fixture must have no disjoint-complete partition")
		}
	}
	s := core.NewStream(tree)
	for round := 0; round < 4; round++ {
		for i := 0; i < 3; i++ {
			s.Launch("w", core.Req{Region: q.Subregions[i], Field: 0, Priv: privilege.Writes()})
		}
		s.Launch("sum", core.Req{Region: q.Subregions[(round+1)%3], Field: 0, Priv: privilege.Reduces(privilege.OpSum)})
		s.Launch("r", core.Req{Region: tree.Root, Field: 0, Priv: privilege.Reads()})
		s.Launch("w2", core.Req{Region: q.Subregions[round%3], Field: 1, Priv: privilege.Writes()})
	}
	verifyAll(t, s)
}

// TestMixedReductionOperators alternates sum/min/max/prod reductions over
// aliased regions with occasional writes and reads — every operator switch
// is an interference boundary.
func TestMixedReductionOperators(t *testing.T) {
	tree, p, g := testutil.GraphTree()
	up, _ := tree.Fields.Lookup("up")
	ops := []privilege.ReduceOp{privilege.OpSum, privilege.OpMin, privilege.OpMax, privilege.OpProd}
	s := core.NewStream(tree)
	for round, op := range ops {
		for i := 0; i < 3; i++ {
			s.Launch("red", core.Req{Region: g.Subregions[i], Field: up, Priv: privilege.Reduces(op)})
		}
		s.Launch("r", core.Req{Region: p.Subregions[round%3], Field: up, Priv: privilege.Reads()})
	}
	s.Launch("final", core.Req{Region: tree.Root, Field: up, Priv: privilege.Reads()})
	verifyAll(t, s)
}

// TestControlElementAllReduce runs the N→1→N all-reduce shape on a
// one-point control region: each cycle, N piece tasks min-reduce one field
// and max-reduce another onto it, one task writes it, and N tasks read it
// back. The min→max→write→read switches on a single point are the
// interference boundaries the fold crosses.
func TestControlElementAllReduce(t *testing.T) {
	const pieces, perPiece = 4, 8
	fs := field.NewSpace()
	v, dt, derr := fs.Add("v"), fs.Add("dt"), fs.Add("derr")
	ctrl := int64(pieces * perPiece)
	tree := region.NewTree("A", index.FromRect(geometry.R1(0, ctrl)), fs)
	owned := make([]index.Space, pieces)
	for i := range owned {
		owned[i] = index.FromRect(geometry.R1(int64(i)*perPiece, int64(i+1)*perPiece-1))
	}
	p := tree.Root.Partition("P", owned)
	c := tree.Root.Partition("C", []index.Space{index.FromRect(geometry.R1(ctrl, ctrl))}).Subregions[0]

	s := core.NewStream(tree)
	for cycle := 0; cycle < 3; cycle++ {
		for i := 0; i < pieces; i++ {
			s.Launch("propose",
				core.Req{Region: p.Subregions[i], Field: v, Priv: privilege.Reads()},
				core.Req{Region: c, Field: dt, Priv: privilege.Reduces(privilege.OpMin)},
				core.Req{Region: c, Field: derr, Priv: privilege.Reduces(privilege.OpMax)})
		}
		s.Launch("fold",
			core.Req{Region: c, Field: dt, Priv: privilege.Writes()},
			core.Req{Region: c, Field: derr, Priv: privilege.Writes()})
		for i := 0; i < pieces; i++ {
			s.Launch("step",
				core.Req{Region: c, Field: dt, Priv: privilege.Reads()},
				core.Req{Region: p.Subregions[i], Field: v, Priv: privilege.Writes()})
		}
	}
	verifyAll(t, s)
}

// TestReadOnlyStream never mutates: everything must be parallel and all
// materializations must be the initial contents.
func TestReadOnlyStream(t *testing.T) {
	tree, p, g := testutil.GraphTree()
	up, _ := tree.Fields.Lookup("up")
	s := core.NewStream(tree)
	for round := 0; round < 3; round++ {
		for i := 0; i < 3; i++ {
			s.Launch("r1", core.Req{Region: p.Subregions[i], Field: up, Priv: privilege.Reads()})
			s.Launch("r2", core.Req{Region: g.Subregions[i], Field: up, Priv: privilege.Reads()})
		}
	}
	verifyAll(t, s)

	// And every analyzer must find zero dependences.
	for _, fac := range allFactories() {
		an := fac.New(tree)
		for _, task := range s.Tasks {
			if deps := an.Analyze(task).Deps; len(deps) != 0 {
				t.Errorf("%s: read-only task %v got deps %v", fac.Name, task, deps)
			}
		}
	}
}

// TestSameTaskMultipleReqsSameField exercises tasks holding two
// requirements on the same field (allowed when both read or both reduce
// with one operator, §4), including overlapping ones.
func TestSameTaskMultipleReqsSameField(t *testing.T) {
	tree, p, g := testutil.GraphTree()
	up, _ := tree.Fields.Lookup("up")
	s := core.NewStream(tree)
	for i := 0; i < 3; i++ {
		s.Launch("w", core.Req{Region: p.Subregions[i], Field: up, Priv: privilege.Writes()})
	}
	// Overlapping same-op reductions within one task.
	s.Launch("redred",
		core.Req{Region: g.Subregions[0], Field: up, Priv: privilege.Reduces(privilege.OpSum)},
		core.Req{Region: g.Subregions[1], Field: up, Priv: privilege.Reduces(privilege.OpSum)})
	// Overlapping reads within one task.
	s.Launch("rr",
		core.Req{Region: p.Subregions[1], Field: up, Priv: privilege.Reads()},
		core.Req{Region: g.Subregions[0], Field: up, Priv: privilege.Reads()})
	verifyAll(t, s)
}

// TestWarnockMemoAblationEquivalence checks the DisableMemo knob changes
// only cost, never results.
func TestWarnockMemoAblationEquivalence(t *testing.T) {
	tree, p, g := testutil.GraphTree()
	s := core.NewStream(tree)
	for iter := 0; iter < 4; iter++ {
		for i := 0; i < 3; i++ {
			s.Launch("t1",
				core.Req{Region: p.Subregions[i], Field: 0, Priv: privilege.Writes()},
				core.Req{Region: g.Subregions[i], Field: 1, Priv: privilege.Reduces(privilege.OpSum)})
		}
	}
	err := core.Verify(s, testutil.FullInit(tree), core.HashKernel{},
		core.Factory{Name: "warnock-nomemo", New: func(tr *region.Tree) core.Analyzer {
			w := warnock.New(tr, core.Options{})
			w.DisableMemo = true
			return w
		}})
	if err != nil {
		t.Fatal(err)
	}
}
