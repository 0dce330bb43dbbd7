package crosscheck

import (
	"testing"

	"visibility/internal/core"
	"visibility/internal/deppart"
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

// TestEmptyPieceRequirements drives requirements on empty regions through
// every analyzer: an explicit empty piece and a piece that a pairwise
// difference (the Minus dependent partition) leaves empty. Writes,
// reductions and reads on them interleave with launches on real pieces.
// A task whose requirements are all empty touches no point, so it
// must report no dependences and empty plans, and the values every other
// task sees must not move.
func TestEmptyPieceRequirements(t *testing.T) {
	r1 := func(lo, hi int64) index.Space { return index.FromRect(geometry.R1(lo, hi)) }
	fs := field.NewSpace()
	v, w := fs.Add("v"), fs.Add("w")
	tree := region.NewTree("A", r1(0, 31), fs)
	p := tree.Root.Partition("P", []index.Space{r1(0, 7), r1(8, 15), index.Empty(1), r1(16, 31)})
	outer := []index.Space{r1(0, 9), r1(10, 19), r1(20, 31)}
	inner := []index.Space{r1(0, 3), r1(10, 19), r1(24, 27)}
	g := tree.Root.Partition("G", deppart.Difference(outer, inner))
	explicit, minus := p.Subregions[2], g.Subregions[1]
	if !explicit.Space.IsEmpty() || !minus.Space.IsEmpty() {
		t.Fatalf("want empty pieces, got %v and %v", explicit.Space, minus.Space)
	}

	s := core.NewStream(tree)
	empty := map[int]bool{}
	onEmpty := func(name string, reqs ...core.Req) {
		empty[s.Launch(name, reqs...).ID] = true
	}
	sum := privilege.Reduces(privilege.OpSum)
	for iter := 0; iter < 3; iter++ {
		s.Launch("w0", core.Req{Region: p.Subregions[0], Field: v, Priv: privilege.Writes()})
		onEmpty("we", core.Req{Region: explicit, Field: v, Priv: privilege.Writes()})
		s.Launch("g0", core.Req{Region: g.Subregions[0], Field: v, Priv: sum},
			core.Req{Region: g.Subregions[2], Field: w, Priv: privilege.Writes()})
		onEmpty("rm", core.Req{Region: minus, Field: v, Priv: sum},
			core.Req{Region: explicit, Field: w, Priv: sum})
		s.Launch("mixed", core.Req{Region: p.Subregions[3], Field: w, Priv: sum},
			core.Req{Region: minus, Field: w, Priv: privilege.Writes()})
		onEmpty("re", core.Req{Region: explicit, Field: v, Priv: privilege.Reads()},
			core.Req{Region: minus, Field: w, Priv: privilege.Reads()})
		s.Launch("r1", core.Req{Region: p.Subregions[1], Field: v, Priv: privilege.Reads()},
			core.Req{Region: g.Subregions[2], Field: w, Priv: privilege.Reads()})
		onEmpty("wm", core.Req{Region: minus, Field: v, Priv: privilege.Writes()})
		s.Launch("wroot", core.Req{Region: tree.Root, Field: w, Priv: privilege.Writes()})
	}

	facs := allFactories()
	if err := core.Verify(s, testutil.FullInit(tree), core.HashKernel{}, facs...); err != nil {
		t.Fatal(err)
	}
	for _, fac := range facs {
		an := fac.New(tree)
		for _, task := range s.Tasks {
			res := an.Analyze(task)
			if !empty[task.ID] {
				continue
			}
			if len(res.Deps) != 0 {
				t.Errorf("%s: task %d (%s) on empty regions reports deps %v", fac.Name, task.ID, task.Name, res.Deps)
			}
			for ri, plan := range res.Plans {
				if len(plan) != 0 {
					t.Errorf("%s: task %d (%s) req %d on an empty region has plan %v", fac.Name, task.ID, task.Name, ri, plan)
				}
			}
		}
	}
}
