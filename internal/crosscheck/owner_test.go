package crosscheck

import (
	"testing"

	"visibility/internal/algo"
	"visibility/internal/apps"
	"visibility/internal/apps/circuit"
	"visibility/internal/apps/pennant"
	"visibility/internal/apps/stencil"
	"visibility/internal/core"
	"visibility/internal/dist"
	"visibility/internal/index"
)

// TestOwnerResolvedOncePerSet counts calls of the harness's owner function
// (dist.OwnerByPartition) on each application at 16 nodes. Ownership is a
// function of immutable geometry, so after the first iteration nobody
// resolves anything: Warnock's sets live forever, the painter's state sits
// at region-tree nodes, and the sets ray casting re-creates every
// iteration wear interned geometry nodes that were resolved when first
// worn. Pennant's Warnock first meets 16 geometry nodes in iteration 1.
// The driver's own asks are dist.TestDriverResolvesOwnersOnce.
func TestOwnerResolvedOncePerSet(t *testing.T) {
	firstIter := map[string]int64{"pennant/warnock": 16}
	for _, app := range []struct {
		name  string
		build apps.Builder
	}{{"circuit", circuit.New}, {"stencil", stencil.New}, {"pennant", pennant.New}} {
		for _, alg := range []string{"warnock", "paint", "raycast"} {
			newAn, err := algo.Lookup(alg)
			if err != nil {
				t.Fatal(err)
			}
			inst := app.build(16)
			owner, calls := dist.OwnerByPartition(inst.Owned, 16), int64(0)
			an := newAn(inst.Tree, core.Options{Owner: func(sp index.Space) int {
				calls++
				return owner(sp)
			}})
			stream := core.NewStream(inst.Tree)
			run := func(ls []apps.Launch) {
				for _, l := range ls {
					an.Analyze(l.Task)
				}
			}
			if inst.EmitInit != nil {
				run(inst.EmitInit(stream))
			}
			run(inst.Emit(stream, 0))
			for iter := 1; iter <= 4; iter++ {
				before := calls
				run(inst.Emit(stream, iter))
				want := int64(0)
				if iter == 1 {
					want = firstIter[app.name+"/"+alg]
				}
				if got := calls - before; got != want {
					t.Errorf("%s/%s: iteration %d made %d owner calls, want %d", app.name, alg, iter, got, want)
				}
			}
		}
	}
}
