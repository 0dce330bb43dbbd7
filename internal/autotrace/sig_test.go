package autotrace

import (
	"testing"

	"visibility/internal/core"
	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/index"
	"visibility/internal/privilege"
	"visibility/internal/region"
	"visibility/internal/warnock"
)

// sigTree builds a small region tree whose root has two subregions, so
// corpus entries can differ by region identity alone.
func sigTree() (*region.Tree, *region.Partition) {
	fs := field.NewSpace()
	fs.Add("f0")
	fs.Add("f1")
	tree := region.NewTree("R", index.FromRect(geometry.R1(0, 9)), fs)
	a, b := tree.Root.Space.SplitAt(5)
	p := tree.Root.Partition("P", []index.Space{a, b})
	return tree, p
}

// task builds a launch at a chosen stream offset without a Stream, so
// tests control task IDs (and therefore future-dep offsets) directly.
func task(id int, name string, reqs []core.Req, futureDeps ...int) *core.Task {
	return &core.Task{ID: id, Name: name, Reqs: reqs, FutureDeps: futureDeps}
}

// TestSignatureCorpusNoCollisions enumerates launches that differ in
// exactly one structural dimension each — kernel name, requirement
// count, region identity, field, privilege kind, reduction operator,
// future-edge count and offset — and requires all hashes pairwise
// distinct.
func TestSignatureCorpusNoCollisions(t *testing.T) {
	tree, p := sigTree()
	root := tree.Root
	sub0, sub1 := p.Subregions[0], p.Subregions[1]
	req := func(r *region.Region, f field.ID, pr privilege.Privilege) []core.Req {
		return []core.Req{{Region: r, Field: f, Priv: pr}}
	}
	corpus := map[string]*core.Task{
		"base":          task(10, "t", req(root, 0, privilege.Reads())),
		"name":          task(10, "u", req(root, 0, privilege.Reads())),
		"region":        task(10, "t", req(sub0, 0, privilege.Reads())),
		"other region":  task(10, "t", req(sub1, 0, privilege.Reads())),
		"field":         task(10, "t", req(root, 1, privilege.Reads())),
		"priv write":    task(10, "t", req(root, 0, privilege.Writes())),
		"priv reduce":   task(10, "t", req(root, 0, privilege.Reduces(privilege.OpSum))),
		"reduce op":     task(10, "t", req(root, 0, privilege.Reduces(privilege.OpMax))),
		"two reqs":      task(10, "t", append(req(sub0, 0, privilege.Reads()), core.Req{Region: sub1, Field: 0, Priv: privilege.Reads()})),
		"req order":     task(10, "t", append(req(sub1, 0, privilege.Reads()), core.Req{Region: sub0, Field: 0, Priv: privilege.Reads()})),
		"future dep":    task(10, "t", req(root, 0, privilege.Reads()), 9),
		"older dep":     task(10, "t", req(root, 0, privilege.Reads()), 7),
		"two deps":      task(10, "t", req(root, 0, privilege.Reads()), 9, 8),
		"empty name":    task(10, "", req(root, 0, privilege.Reads())),
		"prefix squash": task(10, "tt", req(root, 0, privilege.Reads())),
	}
	seen := map[uint64]string{}
	for label, tk := range corpus {
		h := Signature(tk)
		if prev, dup := seen[h]; dup {
			t.Errorf("corpus entries %q and %q collide on %#x", prev, label, h)
		}
		seen[h] = label
	}
}

// TestSignatureOffsetInvariance requires structurally identical launches
// to hash equal at every stream offset — including launches whose future
// edges point the same relative distance back.
func TestSignatureOffsetInvariance(t *testing.T) {
	tree, p := sigTree()
	reqs := []core.Req{
		{Region: p.Subregions[0], Field: 1, Priv: privilege.Writes()},
		{Region: tree.Root, Field: 0, Priv: privilege.Reads()},
	}
	base := Signature(task(5, "step", reqs, 3, 1))
	for _, off := range []int{0, 1, 17, 4096, 1 << 30} {
		id := 5 + off
		got := Signature(task(id, "step", reqs, id-2, id-4))
		if got != base {
			t.Errorf("offset %d: hash %#x, want %#x (structure unchanged)", off, got, base)
		}
	}
	// A shifted future edge is a different structure.
	if Signature(task(6, "step", reqs, 3, 2)) == base {
		t.Error("future-dep offset change did not change the hash")
	}
}

// TestSameShape is the exact check behind Signature: a replayed launch
// matches the recorded one only when name, requirement count and, per
// requirement, region, field, privilege kind and reduction operator all
// agree. Task ID and future edges do not enter it.
func TestSameShape(t *testing.T) {
	tree, p := sigTree()
	req := func(r *region.Region, f field.ID, pr privilege.Privilege) core.Req {
		return core.Req{Region: r, Field: f, Priv: pr}
	}
	sum := privilege.Reduces(privilege.OpSum)
	rec := task(3, "t", []core.Req{req(p.Subregions[0], 0, privilege.Writes()), req(tree.Root, 1, sum)})
	for _, tc := range []struct {
		name string
		t    *core.Task
		want bool
	}{
		{"same", task(9, "t", []core.Req{req(p.Subregions[0], 0, privilege.Writes()), req(tree.Root, 1, sum)}, 4), true},
		{"name", task(9, "u", []core.Req{req(p.Subregions[0], 0, privilege.Writes()), req(tree.Root, 1, sum)}), false},
		{"requirement count", task(9, "t", []core.Req{req(p.Subregions[0], 0, privilege.Writes())}), false},
		{"region", task(9, "t", []core.Req{req(p.Subregions[1], 0, privilege.Writes()), req(tree.Root, 1, sum)}), false},
		{"field", task(9, "t", []core.Req{req(p.Subregions[0], 1, privilege.Writes()), req(tree.Root, 1, sum)}), false},
		{"privilege kind", task(9, "t", []core.Req{req(p.Subregions[0], 0, privilege.Reads()), req(tree.Root, 1, sum)}), false},
		{"reduction operator", task(9, "t", []core.Req{req(p.Subregions[0], 0, privilege.Writes()), req(tree.Root, 1, privilege.Reduces(privilege.OpMax))}), false},
	} {
		if got := sameShape(tc.t, rec); got != tc.want {
			t.Errorf("%s: sameShape = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestShapeMismatchAborts forges a hash collision: the recorded launch
// the next replay compares against is swapped for one of another shape,
// so the launch's hash matches the candidate but sameShape does not. The
// instance aborts like a hash mismatch — the trace is invalidated, the
// replayed launches are re-analyzed — and the launch is analyzed
// directly.
func TestShapeMismatchAborts(t *testing.T) {
	tree, p := sigTree()
	an := warnock.New(tree, core.Options{})
	a := New(an, core.Options{})
	s := core.NewStream(tree)
	spin := func() *core.Task {
		return s.Launch("spin", core.Req{Region: p.Subregions[0], Field: 0, Priv: privilege.Writes()})
	}
	for i := 0; i < 6; i++ { // 0-1 detect, 2-3 record, 4-5 replay
		a.Analyze(spin())
	}
	if a.mode != armed || a.replayed.Load() != 2 {
		t.Fatalf("mode %d, replayed %d; want armed after 2 replays", a.mode, a.replayed.Load())
	}
	a.tr.tasks[0] = s.Launch("other", core.Req{Region: p.Subregions[1], Field: 0, Priv: privilege.Writes()})
	before := an.Stats().Launches
	a.Analyze(spin())
	st := a.AutoStats()
	if st.Aborts != 1 || st.Trace.Invalidations != 1 || st.Trace.Replayed != 2 {
		t.Errorf("aborts/invalidations/replayed = %d/%d/%d, want 1/1/2", st.Aborts, st.Trace.Invalidations, st.Trace.Replayed)
	}
	if got := an.Stats().Launches - before; got != 2+1 {
		t.Errorf("wrapped analyzer saw %d launches, want the 2 replayed plus this one", got)
	}
	// The window is still current, so the launch re-commits the loop
	// under the next trace id.
	if a.traceID != 1 || st.Candidates != 2 {
		t.Errorf("trace id %d, candidates %d; want the id retired and the loop re-detected", a.traceID, st.Candidates)
	}
}

// FuzzSignature checks determinism and structural equality: the hash is
// a pure function of the launch's structure, and rebuilding the same
// structure at a different stream offset reproduces it.
func FuzzSignature(f *testing.F) {
	f.Add("t", 0, 0, 1, 3, 2)
	f.Add("kernel", 1, 1, 2, 0, 7)
	f.Fuzz(func(t *testing.T, name string, sub, fld, privSel, op, depOff int) {
		tree, p := sigTree()
		r := tree.Root
		if sub%3 != 0 {
			r = p.Subregions[abs(sub)%2]
		}
		var pr privilege.Privilege
		switch abs(privSel) % 3 {
		case 0:
			pr = privilege.Reads()
		case 1:
			pr = privilege.Writes()
		default:
			ops := []privilege.ReduceOp{privilege.OpSum, privilege.OpProd, privilege.OpMin, privilege.OpMax}
			pr = privilege.Reduces(ops[abs(op)%len(ops)])
		}
		reqs := []core.Req{{Region: r, Field: field.ID(abs(fld) % 2), Priv: pr}}
		off := 1 + abs(depOff)%64
		a := task(100, name, reqs, 100-off)
		b := task(7+off, name, reqs, 7)
		ha, hb := Signature(a), Signature(b)
		if ha != Signature(a) {
			t.Fatal("signature is not deterministic")
		}
		if ha != hb {
			t.Fatalf("equal structures at offsets 100 and %d hash %#x vs %#x", 7+off, ha, hb)
		}
	})
}

func abs(v int) int {
	if v < 0 {
		if v == -v { // math.MinInt stays negative under negation
			return 0
		}
		return -v
	}
	return v
}
