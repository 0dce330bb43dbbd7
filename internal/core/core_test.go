package core_test

import (
	"reflect"
	"testing"
	"unsafe"

	"visibility/internal/core"
	"visibility/internal/data"
	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/index"
	"visibility/internal/paint"
	"visibility/internal/privilege"
	"visibility/internal/region"
)

// lineTree builds a root region [0,n-1] with fields "a","b" and a disjoint
// partition into k equal blocks.
func lineTree(n, k int64) (*region.Tree, *region.Partition) {
	fs := field.NewSpace()
	fs.Add("a")
	fs.Add("b")
	tree := region.NewTree("R", index.FromRect(geometry.R1(0, n-1)), fs)
	pieces := make([]index.Space, k)
	per := n / k
	for i := int64(0); i < k; i++ {
		pieces[i] = index.FromRect(geometry.R1(i*per, (i+1)*per-1))
	}
	return tree, tree.Root.Partition("B", pieces)
}

func TestDedupDeps(t *testing.T) {
	got := core.DedupDeps([]int{5, 3, 5, core.InitialTask, 1, 3})
	want := []int{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("DedupDeps = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DedupDeps = %v, want %v", got, want)
		}
	}
	if core.DedupDeps(nil) != nil {
		t.Error("DedupDeps(nil) should be nil")
	}
	if core.DedupDeps([]int{core.InitialTask}) != nil {
		t.Error("initial task alone should dedup to nil")
	}
}

func TestReqsInterfere(t *testing.T) {
	tree, p := lineTree(12, 3)
	a := core.Req{Region: p.Subregions[0], Field: 0, Priv: privilege.Writes()}
	b := core.Req{Region: p.Subregions[1], Field: 0, Priv: privilege.Writes()}
	if core.ReqsInterfere(a, b) {
		t.Error("disjoint regions cannot interfere")
	}
	c := core.Req{Region: tree.Root, Field: 0, Priv: privilege.Reads()}
	if !core.ReqsInterfere(a, c) {
		t.Error("write vs overlapping read should interfere")
	}
	d := core.Req{Region: tree.Root, Field: 1, Priv: privilege.Writes()}
	if core.ReqsInterfere(a, d) {
		t.Error("different fields cannot interfere")
	}
	e := core.Req{Region: tree.Root, Field: 0, Priv: privilege.Reads()}
	if core.ReqsInterfere(c, e) {
		t.Error("read/read does not interfere")
	}
}

func TestExactDepsAndClosure(t *testing.T) {
	tree, p := lineTree(12, 3)
	s := core.NewStream(tree)
	w := func(r *region.Region) *core.Task {
		return s.Launch("w", core.Req{Region: r, Field: 0, Priv: privilege.Writes()})
	}
	w(p.Subregions[0])                                                                  // 0
	w(p.Subregions[1])                                                                  // 1
	w(p.Subregions[2])                                                                  // 2
	rd := s.Launch("r", core.Req{Region: tree.Root, Field: 0, Priv: privilege.Reads()}) // 3
	w(p.Subregions[0])                                                                  // 4

	exact := core.ExactDeps(s.Tasks)
	if len(exact[0]) != 0 || len(exact[1]) != 0 || len(exact[2]) != 0 {
		t.Errorf("independent writes have deps: %v", exact[:3])
	}
	if len(exact[rd.ID]) != 3 {
		t.Errorf("root read should depend on all writes: %v", exact[rd.ID])
	}
	// Task 4 interferes with write 0 and read 3.
	if len(exact[4]) != 2 || exact[4][0] != 0 || exact[4][1] != 3 {
		t.Errorf("exact[4] = %v, want [0 3]", exact[4])
	}

	// Closure: 0 reaches 4 directly and via 3.
	c := core.NewClosure(exact)
	if !c.Reaches(0, 4) || !c.Reaches(0, 3) || !c.Reaches(3, 4) {
		t.Error("closure missing pairs")
	}
	if c.Reaches(1, 4) != true { // 1 -> 3 -> 4
		t.Error("closure should include transitive 1->4")
	}
	if c.Reaches(4, 0) || c.Reaches(2, 1) {
		t.Error("closure has spurious pairs")
	}

	// A sparser DAG that relies on transitivity still passes CheckSound.
	sparse := [][]int{{}, {}, {}, {0, 1, 2}, {3}}
	if err := core.CheckSound(sparse, exact); err != nil {
		t.Errorf("CheckSound(sparse) = %v", err)
	}
	// Dropping the 3->4 edge breaks ordering 0->4.
	broken := [][]int{{}, {}, {}, {0, 1, 2}, {}}
	if err := core.CheckSound(broken, exact); err == nil {
		t.Error("CheckSound should fail for missing ordering")
	}
}

func TestCheckPrecise(t *testing.T) {
	exact := [][]int{{}, {0}}
	if core.CheckPrecise([][]int{{}, {0}}, exact) != 0 {
		t.Error("no spurious edges expected")
	}
	if core.CheckPrecise([][]int{{}, {0}}, [][]int{{}, {}}) != 1 {
		t.Error("one spurious edge expected")
	}
}

func initStores(tree *region.Tree, val func(f field.ID, p geometry.Point) float64) map[field.ID]*data.Store {
	init := make(map[field.ID]*data.Store)
	for f := 0; f < tree.Fields.Len(); f++ {
		st := data.NewStore(tree.Root.Space)
		st.Fill(func(p geometry.Point) float64 { return val(field.ID(f), p) })
		init[field.ID(f)] = st
	}
	return init
}

func TestEngineMatchesSeq(t *testing.T) {
	tree, p := lineTree(12, 3)
	init := initStores(tree, func(f field.ID, pt geometry.Point) float64 {
		return float64(int64(f)*100) + float64(pt.C[0])
	})
	s := core.NewStream(tree)
	// Writes to pieces, reductions to overlapping spans, then reads.
	s.Launch("w0", core.Req{Region: p.Subregions[0], Field: 0, Priv: privilege.Writes()})
	s.Launch("w1", core.Req{Region: p.Subregions[1], Field: 0, Priv: privilege.Writes()})
	s.Launch("red", core.Req{Region: tree.Root, Field: 0, Priv: privilege.Reduces(privilege.OpSum)})
	s.Launch("r", core.Req{Region: tree.Root, Field: 0, Priv: privilege.Reads()})
	s.Launch("w2", core.Req{Region: p.Subregions[2], Field: 1, Priv: privilege.Writes()})
	s.Launch("rb", core.Req{Region: tree.Root, Field: 1, Priv: privilege.Reads()})

	err := core.Verify(s, init, core.HashKernel{}, core.Factory{
		Name: "paint-naive",
		New: func(tr *region.Tree) core.Analyzer {
			return paint.NewNaive(tr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCatchesBadAnalyzer(t *testing.T) {
	tree, p := lineTree(12, 3)
	init := initStores(tree, func(field.ID, geometry.Point) float64 { return 1 })
	s := core.NewStream(tree)
	s.Launch("w0", core.Req{Region: p.Subregions[0], Field: 0, Priv: privilege.Writes()})
	s.Launch("r", core.Req{Region: tree.Root, Field: 0, Priv: privilege.Reads()})

	err := core.Verify(s, init, core.HashKernel{}, core.Factory{
		Name: "amnesiac",
		New: func(tr *region.Tree) core.Analyzer {
			return &amnesiac{tree: tr}
		},
	})
	if err == nil {
		t.Fatal("Verify accepted an analyzer that forgets writes")
	}
}

// amnesiac is a deliberately broken analyzer: it reports no dependences and
// materializes only the initial contents.
type amnesiac struct {
	tree  *region.Tree
	stats core.Stats
}

func (a *amnesiac) Name() string       { return "amnesiac" }
func (a *amnesiac) Stats() *core.Stats { return &a.stats }
func (a *amnesiac) Analyze(t *core.Task) *core.Result {
	plans := make([][]core.Visible, len(t.Reqs))
	for ri, req := range t.Reqs {
		if !req.Priv.IsReduce() {
			plans[ri] = []core.Visible{{
				Task: core.InitialTask, Req: 0,
				Priv: privilege.Writes(), Pts: req.Region.Space,
			}}
		}
	}
	return &core.Result{Plans: plans}
}

func TestSeqReduceOverUndefined(t *testing.T) {
	// Reducing to never-written points folds onto the identity.
	fs := field.NewSpace()
	fs.Add("a")
	tree := region.NewTree("R", index.FromRect(geometry.R1(0, 3)), fs)
	seq := core.NewSeq(tree, map[field.ID]*data.Store{0: data.NewStore(tree.Root.Space)})
	s := core.NewStream(tree)
	red := s.Launch("red", core.Req{Region: tree.Root, Field: 0, Priv: privilege.Reduces(privilege.OpSum)})
	seq.Run(red, constKernel{7})
	if got := seq.Global(0).MustGet(geometry.Pt1(0)); got != 7 {
		t.Errorf("reduce over undefined = %v, want 7", got)
	}
}

type constKernel struct{ v float64 }

func (k constKernel) WriteValue(*core.Task, int, geometry.Point, float64) float64 { return k.v }
func (k constKernel) ReduceValue(*core.Task, int, geometry.Point) float64         { return k.v }

// Materialize allocates the input store — header, slab, definedness bitset,
// and the offset table of a multi-rectangle space — and nothing per point
// or per plan entry.
func TestMaterializeAllocations(t *testing.T) {
	fs := field.NewSpace()
	fs.Add("v")
	for _, width := range []int64{64, 4096} {
		// Three rectangles; each producer covers the low part of one, so
		// the plan leaves the input partly defined.
		sp := index.FromRects(2, geometry.R2(0, 0, width-1, 1), geometry.R2(0, 2, 1, 5), geometry.R2(8, 2, 9, 5))
		req := core.Req{Region: region.NewTree("R", sp, fs).Root, Priv: privilege.Reads()}
		var srcs []*data.Store
		var plan []core.Visible
		for i, pts := range []index.Space{
			index.FromRect(geometry.R2(0, 0, width/2, 1)),
			index.FromRect(geometry.R2(0, 2, 1, 3)),
			index.FromRects(2, geometry.R2(0, 1, width/4, 1), geometry.R2(8, 2, 9, 3)),
		} {
			src := data.NewStore(pts)
			src.Fill(func(p geometry.Point) float64 { return float64(p.C[0]) })
			srcs = append(srcs, src)
			priv := privilege.Writes()
			if i == 2 {
				priv = privilege.Reduces(privilege.OpSum)
			}
			plan = append(plan, core.Visible{Task: i, Priv: priv, Pts: pts})
		}
		source := func(v core.Visible, _ field.ID) *data.Store { return srcs[v.Task] }
		if in := core.Materialize(req, plan, source); in.Len() == 0 || in.Len() == int(sp.Volume()) {
			t.Fatalf("width %d: want a partly defined input, got %d of %d points", width, in.Len(), sp.Volume())
		}
		if got := testing.AllocsPerRun(100, func() { core.Materialize(req, plan, source) }); got > 4 {
			t.Errorf("width %d: Materialize of a %d-entry plan allocates %v times, want at most 4", width, len(plan), got)
		}
	}
}

// TestEntryStaysPointerFree pins what every analyzer's history array
// costs: 32 bytes an entry and no pointer for the collector to scan,
// footprint included.
func TestEntryStaysPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(core.Entry{}); size != 32 {
		t.Errorf("core.Entry is %d bytes, want 32", size)
	}
	var walk func(reflect.Type) bool
	walk = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if walk(ty.Field(i).Type) {
					return true
				}
			}
			return false
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Float32, reflect.Float64:
			return false
		}
		return true
	}
	if walk(reflect.TypeOf(core.Entry{})) {
		t.Error("core.Entry holds a pointer")
	}
}
