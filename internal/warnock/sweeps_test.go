package warnock_test

import (
	"testing"

	"visibility/internal/core"
	"visibility/internal/testutil"
	"visibility/internal/warnock"
)

// TestSteadyStateSweepsNothing drives circuit and stencil at 16 nodes
// through initialization and two iterations, then checks that a third
// makes no index-space sweep on the lookup path: no overlap test in a
// descent (every region restarts from its memoized sets, which lie inside
// it) and no Node.Cut miss in Kernel.Split (every set found was cut by
// the region before). With no fault plane Split sums no volume either.
// The iteration still charges every test it used to sweep.
func TestSteadyStateSweepsNothing(t *testing.T) {
	for _, app := range testutil.SmallApps {
		inst := app.Build(16)
		w := warnock.New(inst.Tree, core.Options{})
		stream := core.NewStream(inst.Tree)
		run := func(iter int) {
			for _, l := range inst.Emit(stream, iter) {
				w.Analyze(l.Task)
			}
		}
		if inst.EmitInit != nil {
			for _, l := range inst.EmitInit(stream) {
				w.Analyze(l.Task)
			}
		}
		for iter := 0; iter <= 2; iter++ {
			run(iter)
		}
		charged := w.Stats().OverlapTests
		tests, misses := w.Sweeps(func() { run(3) })
		if tests != 0 || misses != 0 {
			t.Errorf("%s: a steady-state iteration swept %d overlap tests and %d cut misses, want none", app.Name, tests, misses)
		}
		if w.Stats().OverlapTests == charged {
			t.Errorf("%s: the steady-state iteration charged no overlap test", app.Name)
		}
	}
}
