package warnock_test

import (
	"testing"

	"visibility/internal/core"
	"visibility/internal/fault"
	"visibility/internal/testutil"
	"visibility/internal/warnock"
)

// TestResolvedGeometryUnderFaults drives circuit and stencil through
// forced splits under an owner function that tells a set from its
// fragments, and checks after every launch that every node of the
// refinement tree still carries the owner its points resolve to.
func TestResolvedGeometryUnderFaults(t *testing.T) {
	for _, app := range testutil.SmallApps {
		inj, err := fault.NewFromString("seed=7;analyzer.eqset.split=p=0.5")
		if err != nil {
			t.Fatal(err)
		}
		inst := app.Build(4)
		w := warnock.New(inst.Tree, core.Options{Faults: inj, Owner: testutil.ShapeOwner})
		testutil.DriveChecked(t, app.Name, inst, w, w.CheckResolved)
		if inj.Fires(fault.EqSplit) == 0 {
			t.Errorf("%s: no split was forced", app.Name)
		}
	}
}
