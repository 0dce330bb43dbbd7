package crosscheck

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"visibility/internal/core"
	"visibility/internal/field"
	"visibility/internal/harness"
	"visibility/internal/privilege"
	"visibility/internal/raycast"
	"visibility/internal/region"
	"visibility/internal/testutil"
)

// renderRun replays stream through a fresh analyzer from fac and serializes
// everything it produces — dependences, every plan entry, and (for ray
// casting) the surviving equivalence-set spaces — into one string, so two
// runs can be compared byte for byte.
func renderRun(fac core.Factory, tree *region.Tree, stream *core.Stream) string {
	an := fac.New(tree)
	var b strings.Builder
	for _, task := range stream.Tasks {
		res := an.Analyze(task)
		fmt.Fprintf(&b, "task %d deps %v\n", task.ID, res.Deps)
		for ri, plan := range res.Plans {
			fmt.Fprintf(&b, "  plan %d:", ri)
			for _, v := range plan {
				fmt.Fprintf(&b, " %d.%d/%v@%v", v.Task, v.Req, v.Priv, v.Pts)
			}
			b.WriteString("\n")
		}
	}
	if rc, ok := an.(*raycast.RayCast); ok {
		for f := 0; f < tree.Fields.Len(); f++ {
			for _, sp := range rc.SetSpaces(field.ID(f)) {
				fmt.Fprintf(&b, "set %d %v\n", f, sp)
			}
		}
	}
	return b.String()
}

// TestDeterministicDependenceOutput replays the same stream twice through
// fresh analyzer instances and requires byte-identical output. Analyzer
// state lives in Go maps whose iteration order varies between instances
// even within one process, so any map-order dependence in deps, plans, or
// equivalence-set reporting shows up as a diff here.
func TestDeterministicDependenceOutput(t *testing.T) {
	type scenario struct {
		name   string
		tree   *region.Tree
		stream *core.Stream
	}
	var scenarios []scenario
	tree, p, g := testutil.GraphTree()
	scenarios = append(scenarios, scenario{"figure5", tree, figure5Stream(tree, p, g)})
	for _, seed := range []int64{1, 42, 20260806} {
		rng := rand.New(rand.NewSource(seed))
		tr := harness.ChaosTree(rng)
		scenarios = append(scenarios, scenario{fmt.Sprintf("rand%d", seed), tr, harness.ChaosStream(rng, tr, 30)})
	}

	for _, sc := range scenarios {
		for _, fac := range allFactories() {
			first := renderRun(fac, sc.tree, sc.stream)
			second := renderRun(fac, sc.tree, sc.stream)
			if first != second {
				t.Errorf("%s/%s: two runs of the same stream differ\nfirst:\n%s\nsecond:\n%s",
					sc.name, fac.Name, first, second)
			}
		}
	}
}

// fuzzStream decodes a task stream over the Figure 1 graph tree from fuzz
// bytes: each three-byte group selects a region, a field, and a privilege
// for a single-requirement task (single requirements trivially satisfy the
// §4 restriction on a task's own requirements).
func fuzzStream(tree *region.Tree, data []byte) *core.Stream {
	var regions []*region.Region
	for i := 0; i < tree.NumRegions(); i++ {
		if r := tree.Region(i); !r.Space.IsEmpty() {
			regions = append(regions, r)
		}
	}
	ops := []privilege.ReduceOp{privilege.OpSum, privilege.OpProd, privilege.OpMin, privilege.OpMax}
	s := core.NewStream(tree)
	for len(data) >= 3 && len(s.Tasks) < 16 {
		r := regions[int(data[0])%len(regions)]
		f := field.ID(int(data[1]) % tree.Fields.Len())
		var priv privilege.Privilege
		switch data[2] % 6 {
		case 0:
			priv = privilege.Reads()
		case 1, 2:
			priv = privilege.Writes()
		default:
			priv = privilege.Reduces(ops[int(data[2]/6)%len(ops)])
		}
		s.Launch("fz", core.Req{Region: r, Field: f, Priv: priv})
		data = data[3:]
	}
	return s
}

// FuzzPainterVsExact runs small fuzz-derived streams through every
// analyzer, the naive painter included, under core.Verify: every plan
// must be well formed (core.Checked), every materialized value must match
// the sequential interpreter's, and each analyzer's transitive closure
// must contain every exact dependence.
func FuzzPainterVsExact(f *testing.F) {
	f.Add([]byte{0, 0, 1})                         // one write on the root
	f.Add([]byte{1, 0, 1, 4, 0, 3, 2, 1, 0})       // write, reduce, read mix
	f.Add([]byte{1, 0, 1, 2, 0, 1, 3, 0, 1})       // disjoint writes
	f.Add([]byte{4, 1, 3, 5, 1, 9, 6, 1, 3})       // aliased ghost reductions
	f.Add([]byte{0, 0, 2, 0, 1, 2, 0, 0, 0, 0, 1}) // root writes then read
	f.Fuzz(func(t *testing.T, data []byte) {
		tree, _, _ := testutil.GraphTree()
		s := fuzzStream(tree, data)
		if len(s.Tasks) == 0 {
			return
		}
		if err := core.Verify(s, testutil.FullInit(tree), core.HashKernel{}, allFactories()...); err != nil {
			t.Error(err)
		}
	})
}
