package harness_test

import (
	"fmt"
	"testing"

	"visibility/internal/apps"
	"visibility/internal/apps/circuit"
	"visibility/internal/apps/pennant"
	"visibility/internal/apps/stencil"
)

// TestVirtualTimesPinned holds the cost model still: the virtual init and
// per-iteration times (exact float equality, as visperf's check compares
// them) and the analyzer's op count of every application × analyzer at
// its §8 DCR setting, n ∈ {1, 4, 16}, two measured iterations. The circuit
// and stencil values were captured before equivalence sets and painter
// nodes stored their owner and ray casting memoized its bucket lists — a
// stale owner moves a time, an under-charged memo hit moves the ops. The
// pennant rows were re-captured when its global timestep moved from a
// region all-reduce to futures, and the raycast rows when ray casting's
// reads stopped cutting sets. A change that means to move the cost model
// re-captures the table and says so.
func TestVirtualTimesPinned(t *testing.T) {
	builders := map[string]apps.Builder{"circuit": circuit.New, "stencil": stencil.New, "pennant": pennant.New}
	for _, want := range []struct {
		app, alg   string
		nodes      int
		init, iter float64
		ops        int64
	}{
		{"circuit", "raycast", 1, 0.0220249, 0.016, 206},
		{"circuit", "raycast", 4, 0.022038365600000005, 0.016008029599999977, 10154},
		{"circuit", "raycast", 16, 0.02204476400000001, 0.016014209199999963, 69882},
		{"circuit", "warnock", 1, 0.0220201, 0.016, 126},
		{"circuit", "warnock", 4, 0.022049790000000007, 0.01600860839999998, 2480},
		{"circuit", "warnock", 16, 0.02228364080000001, 0.016015404799999976, 22788},
		{"circuit", "paint", 1, 0.0220152, 0.016, 120},
		{"circuit", "paint", 4, 0.0221274704, 0.016007609199999995, 1700},
		{"circuit", "paint", 16, 0.022586297600000006, 0.016014010799999975, 19598},
		{"stencil", "raycast", 1, 0.0007140500000000001, 0.0005, 84},
		{"stencil", "raycast", 4, 0.0007219012000000001, 0.0005068768000000001, 788},
		{"stencil", "raycast", 16, 0.0007269012000000001, 0.0005070768000000001, 5068},
		{"stencil", "warnock", 1, 0.0007116500000000001, 0.0005, 58},
		{"stencil", "warnock", 4, 0.0007449256000000001, 0.0005076736000000001, 1082},
		{"stencil", "warnock", 16, 0.0010192828, 0.0005105072000000002, 8126},
		{"stencil", "paint", 1, 0.0007116000000000001, 0.0005, 55},
		{"stencil", "paint", 4, 0.0008094560000000001, 0.0005068768000000001, 700},
		{"stencil", "paint", 16, 0.0026238243999999926, 0.002020388400000019, 8668},
		{"pennant", "raycast", 1, 0.0033449, 0.0026099999999999995, 339},
		{"pennant", "raycast", 4, 0.0033652599999999984, 0.002624915200000001, 3677},
		{"pennant", "raycast", 16, 0.003371221599999998, 0.0026310768, 17501},
		{"pennant", "warnock", 1, 0.0033401, 0.0026099999999999986, 207},
		{"pennant", "warnock", 4, 0.003374321599999998, 0.002625302400000002, 2429},
		{"pennant", "warnock", 16, 0.003923687999999998, 0.002631276800000002, 12197},
		{"pennant", "paint", 1, 0.0033352, 0.0026099999999999995, 189},
		{"pennant", "paint", 4, 0.0034559647999999983, 0.0026245152000000014, 1843},
		{"pennant", "paint", 16, 0.0052508807999999884, 0.005395903199999941, 20023},
	} {
		t.Run(fmt.Sprintf("%s/%s/n%d", want.app, want.alg, want.nodes), func(t *testing.T) {
			r := run(t, builders[want.app], want.app, want.alg, want.alg != "paint", want.nodes)
			if r.InitTime != want.init || r.IterTime != want.iter {
				t.Errorf("virtual init/iter = %v/%v, pinned %v/%v", r.InitTime, r.IterTime, want.init, want.iter)
			}
			if got := r.Stats.Ops(); got != want.ops {
				t.Errorf("ops = %d, pinned %d", got, want.ops)
			}
		})
	}
}
