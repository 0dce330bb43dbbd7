package dist_test

import (
	"testing"

	"visibility/internal/algo"
	"visibility/internal/apps"
	"visibility/internal/apps/circuit"
	"visibility/internal/cluster"
	"visibility/internal/core"
	"visibility/internal/dist"
	"visibility/internal/obs"
)

// TestSteadyStateAllocations drives circuit at 16 nodes through Warnock
// with DCR and through the painter without, legs BenchmarkHarnessLaunch
// times, and bounds what one steady-state launch allocates, Emit included,
// across the application, the analyzer, the driver and the machine. The
// machine keeps nothing per op, and the driver keeps its task tables in
// slices indexed by task ID. Regrowing the whole completion history and a
// map entry per task took about 4,410 bytes per launch, copying every plan
// entry out of the analyzer's scan, which the driver reads only inside the
// call, about 2,570, and recording each op's completion time in pages
// (8 bytes an op, 36 or so ops a launch) about 1,250; Warnock's leg now
// takes about 955, with or without the race detector, and the bound is
// 1,100. The application's names are built once, and the stream and the
// analyzer carve each task, its requirements and its Result and deps from
// chunks, so what is left is mostly chunk refills: 0.23 allocations per
// launch (7.18 when each was allocated on its own), bounded at 0.75, with
// or without the race detector. The painter's leg also asks the partition
// owner for every initial-data plan entry, a memo hit keyed by value; it
// takes 2.10 allocations and about 966 bytes (1,305 with the per-op pages,
// 1,125 while each history item copied its region's point set), bounded
// at 2.45 and 1,050, with or without the race detector.
func TestSteadyStateAllocations(t *testing.T) {
	for _, leg := range []struct {
		alg                 string
		dcr                 bool
		maxAllocs, maxBytes float64
	}{
		{"warnock", true, 0.75, 1100},
		{"paint", false, 2.45, 1050},
	} {
		const nodes = 16
		newAn, err := algo.Lookup(leg.alg)
		if err != nil {
			t.Fatal(err)
		}
		inst := circuit.New(nodes)
		m := cluster.New(cluster.DefaultConfig(nodes))
		d := dist.New(m, inst.Tree, dist.NewAnalyzerFunc(newAn), dist.OwnerByPartition(inst.Owned, nodes), dist.DefaultConfig(leg.dcr))
		stream := core.NewStream(inst.Tree)
		run := func(ls []apps.Launch) {
			for _, l := range ls {
				d.Launch(l.Task, dist.OwnerMapper{}.Place(l.Task, l.Node, nodes), l.Duration)
			}
		}
		run(inst.Emit(stream, 0)) // initialization
		var allocs, bytes, launches int64
		for step := 1; step <= 30; step++ {
			before := obs.ReadAllocs()
			batch := inst.Emit(stream, step)
			run(batch)
			n, b := obs.ReadAllocs().Since(before)
			allocs += n
			bytes += b
			launches += int64(len(batch))
		}
		perAllocs, perBytes := float64(allocs)/float64(launches), float64(bytes)/float64(launches)
		if perAllocs > leg.maxAllocs || perBytes > leg.maxBytes {
			t.Errorf("%s: a steady-state launch allocates %.2f times and %.0f bytes (%d launches), want at most %.2f and %.0f",
				leg.alg, perAllocs, perBytes, launches, leg.maxAllocs, leg.maxBytes)
		} else {
			t.Logf("%s: %.2f allocations and %.0f bytes per launch", leg.alg, perAllocs, perBytes)
		}
	}
}
