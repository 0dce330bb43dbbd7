package crosscheck

import (
	"strings"
	"testing"

	"visibility/internal/core"
	"visibility/internal/index"
	"visibility/internal/raycast"
	"visibility/internal/region"
	"visibility/internal/testutil"
)

// Mutation meta-tests: the verification harness must catch an analyzer
// that is correct except for one subtle corruption. If any of these pass
// verification, the test suite's safety net has a hole.

// mutant wraps a correct analyzer and corrupts its output once.
type mutant struct {
	core.Analyzer
	corrupt func(t *core.Task, res *core.Result)
	fired   bool
}

func (m *mutant) Analyze(t *core.Task) *core.Result {
	res := m.Analyzer.Analyze(t)
	if m.fired {
		return res
	}
	cp := &core.Result{Deps: append([]int{}, res.Deps...), Plans: append([][]core.Visible{}, res.Plans...)}
	m.corrupt(t, cp)
	return cp
}

func mutantFactory(name string, corrupt func(m *mutant, t *core.Task, res *core.Result)) core.Factory {
	return core.Factory{
		Name: name,
		New: func(tr *region.Tree) core.Analyzer {
			m := &mutant{Analyzer: raycast.New(tr, core.Options{})}
			m.corrupt = func(t *core.Task, res *core.Result) { corrupt(m, t, res) }
			return m
		},
	}
}

// expectVerifyFailure requires Verify to reject fac's corruption with an
// error naming the factory: plan violations, dependence gaps and wrong
// values all come back as errors, so a panic here is a bug, not a catch.
func expectVerifyFailure(t *testing.T, fac core.Factory) {
	t.Helper()
	tree, p, g := testutil.GraphTree()
	s := figure5Stream(tree, p, g)
	err := core.Verify(s, testutil.FullInit(tree), core.HashKernel{}, fac)
	if err == nil || !strings.HasPrefix(err.Error(), fac.Name+": ") {
		t.Errorf("%s: verification failed to catch the corruption: %v", fac.Name, err)
	}
}

func TestVerifierCatchesDroppedDependence(t *testing.T) {
	expectVerifyFailure(t, mutantFactory("drop-dep", func(m *mutant, t *core.Task, res *core.Result) {
		// Drop every dependence of a mid-stream task: its exact
		// interferences can no longer be transitively covered.
		if t.ID == 6 && len(res.Deps) > 0 {
			res.Deps = nil
			m.fired = true
		}
	}))
}

func TestVerifierCatchesCorruptedPlanProducer(t *testing.T) {
	expectVerifyFailure(t, mutantFactory("wrong-producer", func(m *mutant, t *core.Task, res *core.Result) {
		for ri := range res.Plans {
			plan := res.Plans[ri]
			for vi := range plan {
				if plan[vi].Task >= 1 {
					// Point one plan entry at an older producer.
					mutated := make([]core.Visible, len(plan))
					copy(mutated, plan)
					mutated[vi].Task = mutated[vi].Task - 1
					res.Plans[ri] = mutated
					m.fired = true
					return
				}
			}
		}
	}))
}

func TestVerifierCatchesShrunkPlanEntry(t *testing.T) {
	expectVerifyFailure(t, mutantFactory("shrunk-entry", func(m *mutant, t *core.Task, res *core.Result) {
		for ri := range res.Plans {
			plan := res.Plans[ri]
			for vi := range plan {
				if plan[vi].Priv.IsWrite() && plan[vi].Pts.Volume() > 1 {
					// Shrink a write entry: leaves a materialization hole.
					mutated := make([]core.Visible, len(plan))
					copy(mutated, plan)
					b := mutated[vi].Pts.Bounds()
					b.Hi.C[0] = b.Lo.C[0]
					mutated[vi].Pts = mutated[vi].Pts.Intersect(index.FromRect(b))
					res.Plans[ri] = mutated
					m.fired = true
					return
				}
			}
		}
	}))
}
