package paint_test

import (
	"testing"

	"visibility/internal/core"
	"visibility/internal/paint"
	"visibility/internal/testutil"
)

// TestResolvedGeometry drives circuit and stencil under an owner function
// that tells region-tree nodes apart, and checks after every launch that
// every node state, and every composite view hoisted to it, still carries
// the owner the node's space resolves to.
func TestResolvedGeometry(t *testing.T) {
	for _, app := range testutil.SmallApps {
		inst := app.Build(4)
		pa := paint.NewPainter(inst.Tree, core.Options{Owner: testutil.ShapeOwner})
		testutil.DriveChecked(t, app.Name, inst, pa, pa.CheckResolved)
		if pa.Stats().ViewsCreated == 0 {
			t.Errorf("%s: no composite view was created", app.Name)
		}
	}
}
