package crosscheck

import (
	"testing"

	"visibility/internal/algo"
	"visibility/internal/apps/circuit"
	"visibility/internal/core"
	"visibility/internal/dist"
	"visibility/internal/index"
)

// TestOwnerResolvedOncePerSet counts calls of the harness's owner function
// (dist.OwnerByPartition) on circuit at 16 nodes. Ownership is a function
// of immutable geometry, so after the init iteration nobody resolves
// anything: Warnock's sets live forever, the painter's state sits at
// region-tree nodes, and the sets ray casting re-creates every iteration
// wear interned geometry nodes that were resolved when first worn.
func TestOwnerResolvedOncePerSet(t *testing.T) {
	for _, alg := range []string{"warnock", "paint", "raycast"} {
		newAn, err := algo.Lookup(alg)
		if err != nil {
			t.Fatal(err)
		}
		inst := circuit.New(16)
		owner, calls := dist.OwnerByPartition(inst.Owned, 16), int64(0)
		an := newAn(inst.Tree, core.Options{Owner: func(sp index.Space) int {
			calls++
			return owner(sp)
		}})
		stream := core.NewStream(inst.Tree)
		for _, l := range append(inst.EmitInit(stream), inst.Emit(stream, 0)...) {
			an.Analyze(l.Task)
		}
		for iter := 1; iter <= 3; iter++ {
			before := calls
			for _, l := range inst.Emit(stream, iter) {
				an.Analyze(l.Task)
			}
			if got := calls - before; got != 0 {
				t.Errorf("%s: iteration %d made %d owner calls, want 0", alg, iter, got)
			}
		}
	}
}
