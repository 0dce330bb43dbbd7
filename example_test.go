package visibility_test

import (
	"fmt"

	"visibility"
)

// Example shows the minimal implicitly-parallel program: disjoint writes
// run in parallel, a dependent read observes all of them coherently.
func Example() {
	rt := visibility.New(visibility.Config{})
	defer rt.Close()

	cells := rt.CreateRegion("cells", visibility.Line(0, 15), "v")
	blocks := cells.PartitionEqual("blocks", 4)
	for i := 0; i < 4; i++ {
		rt.Launch(visibility.TaskSpec{
			Name:     "init",
			Accesses: []visibility.Access{visibility.Write(blocks.Sub(i), "v")},
			Kernel: visibility.Kernel{Write: func(_ int, p visibility.Point, _ float64) float64 {
				return float64(p.C[0])
			}},
		})
	}
	snap := rt.Read(cells, "v")
	var sum float64
	snap.Each(func(_ visibility.Point, v float64) { sum += v })
	fmt.Println(sum)
	// Output: 120
}

// ExampleReduce demonstrates reductions through an aliased partition: both
// windows contribute to their overlap, and the runtime orders and folds
// the contributions.
func ExampleReduce() {
	rt := visibility.New(visibility.Config{})
	defer rt.Close()

	r := rt.CreateRegion("r", visibility.Line(0, 9), "v")
	windows := r.Partition("w", []visibility.IndexSpace{
		visibility.Line(0, 6),
		visibility.Line(4, 9),
	})
	for i := 0; i < 2; i++ {
		rt.Launch(visibility.TaskSpec{
			Name:     "add",
			Accesses: []visibility.Access{visibility.Reduce(visibility.OpSum, windows.Sub(i), "v")},
			Kernel:   visibility.Kernel{Reduce: func(_ int, _ visibility.Point) float64 { return 1 }},
		})
	}
	snap := rt.Read(r, "v")
	v5, _ := snap.Get(visibility.Pt(5)) // in both windows
	v0, _ := snap.Get(visibility.Pt(0)) // in one window
	fmt.Println(v5, v0)
	// Output: 2 1
}

// ExampleRegion_PartitionImage derives a ghost partition from graph
// connectivity with dependent partitioning instead of enumerating halos by
// hand.
func ExampleRegion_PartitionImage() {
	rt := visibility.New(visibility.Config{})
	defer rt.Close()

	nodes := rt.CreateRegion("nodes", visibility.Line(0, 11), "v")
	primary := nodes.PartitionEqual("P", 3)
	neighbors := func(p visibility.Point) []visibility.Point {
		return []visibility.Point{
			visibility.Pt((p.C[0] + 11) % 12),
			visibility.Pt((p.C[0] + 1) % 12),
		}
	}
	ghost := nodes.PartitionImage("reach", primary, neighbors).Minus("G", primary)
	fmt.Println(ghost.Sub(0).Space())
	// Output: {[4..4] [11..11]}
}

// ExampleRuntime_AutoTraceStats shows automatic tracing: the runtime finds
// the repeating loop body by itself, analyzes it once and replays that
// analysis for the remaining iterations.
func ExampleRuntime_AutoTraceStats() {
	rt := visibility.New(visibility.Config{AutoTrace: true})
	defer rt.Close()

	r := rt.CreateRegion("r", visibility.Line(0, 7), "v")
	halves := r.PartitionEqual("H", 2)
	// Two iterations reveal the period, the third records it, and its
	// five successors replay.
	for iter := 0; iter < 8; iter++ {
		for i := 0; i < 2; i++ {
			rt.Launch(visibility.TaskSpec{
				Name:     "step",
				Accesses: []visibility.Access{visibility.Write(halves.Sub(i), "v")},
				Kernel: visibility.Kernel{Write: func(_ int, _ visibility.Point, in float64) float64 {
					return in + 1
				}},
			})
		}
	}
	rt.Wait()
	st := rt.AutoTraceStats(r)
	fmt.Println(st.Instances, st.Trace.Recorded, st.Trace.Replayed)
	// Output: 6 2 10
}
