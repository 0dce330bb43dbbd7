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
// its §8 DCR setting, n ∈ {1, 4, 16}, two measured iterations. The values
// were captured at PR 19, before equivalence sets and painter nodes stored
// their owner and ray casting memoized its bucket lists — a stale owner
// moves a time, an under-charged memo hit moves the ops. A change that
// means to move the cost model re-captures the table and says so.
func TestVirtualTimesPinned(t *testing.T) {
	builders := map[string]apps.Builder{"circuit": circuit.New, "stencil": stencil.New, "pennant": pennant.New}
	for _, want := range []struct {
		app, alg   string
		nodes      int
		init, iter float64
		ops        int64
	}{
		{"circuit", "raycast", 1, 0.0220249, 0.016, 213},
		{"circuit", "raycast", 4, 0.022038365600000005, 0.016008029599999977, 10820},
		{"circuit", "raycast", 16, 0.02204476400000001, 0.016014597999999974, 76436},
		{"circuit", "warnock", 1, 0.0220201, 0.016, 126},
		{"circuit", "warnock", 4, 0.022049790000000007, 0.01600860839999998, 2480},
		{"circuit", "warnock", 16, 0.02228364080000001, 0.016015404799999976, 22788},
		{"circuit", "paint", 1, 0.0220152, 0.016, 120},
		{"circuit", "paint", 4, 0.0221274704, 0.016007609199999995, 1700},
		{"circuit", "paint", 16, 0.022586297600000006, 0.016014010799999975, 19598},
		{"stencil", "raycast", 1, 0.0007140500000000001, 0.0005, 87},
		{"stencil", "raycast", 4, 0.0007219012000000001, 0.0005072736000000001, 1259},
		{"stencil", "raycast", 16, 0.0007269012000000001, 0.0005109212000000001, 8611},
		{"stencil", "warnock", 1, 0.0007116500000000001, 0.0005, 58},
		{"stencil", "warnock", 4, 0.0007449256000000001, 0.0005076736000000001, 1082},
		{"stencil", "warnock", 16, 0.0010192828, 0.0005105072000000002, 8126},
		{"stencil", "paint", 1, 0.0007116000000000001, 0.0005, 55},
		{"stencil", "paint", 4, 0.0008094560000000001, 0.0005068768000000001, 700},
		{"stencil", "paint", 16, 0.0026238243999999926, 0.002020388400000019, 8668},
		{"pennant", "raycast", 1, 0.0033449, 0.0026099999999999995, 465},
		{"pennant", "raycast", 4, 0.0033708423999999977, 0.002626491200000001, 4900},
		{"pennant", "raycast", 16, 0.0033872167999999944, 0.0026374655999999966, 24358},
		{"pennant", "warnock", 1, 0.0033401, 0.0026099999999999986, 279},
		{"pennant", "warnock", 4, 0.0033755159999999977, 0.0026264912000000013, 2762},
		{"pennant", "warnock", 16, 0.0039268824, 0.0026372655999999982, 14924},
		{"pennant", "paint", 1, 0.0033352, 0.0026099999999999995, 273},
		{"pennant", "paint", 4, 0.003457159199999998, 0.002625704000000001, 2314},
		{"pennant", "paint", 16, 0.006030411200000039, 0.006175433600000009, 24742},
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
