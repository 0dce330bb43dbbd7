// Longrun demonstrates the production features around the coherence core:
// an autotraced simulation loop (the runtime finds the repeating step by
// itself, records its dependence analysis once and replays it), a mid-run
// checkpoint to JSON, restoration into a brand-new runtime, and
// continuation — with the final state verified against an uninterrupted
// run.
package main

import (
	"bytes"
	"fmt"
	"log"

	"visibility"
)

const (
	cells  = 64
	pieces = 4
	steps  = 12
	cut    = 7 // checkpoint after this many steps
)

// step runs one diffusion-flavored iteration: each block decays toward
// zero and its boundary leaks into the neighbor via a reduction.
func step(rt *visibility.Runtime, r *visibility.Region, blocks *visibility.Partition) {
	for i := 0; i < pieces; i++ {
		rt.Launch(visibility.TaskSpec{
			Name:     fmt.Sprintf("decay[%d]", i),
			Accesses: []visibility.Access{visibility.Write(blocks.Sub(i), "heat")},
			Kernel: visibility.Kernel{Write: func(_ int, _ visibility.Point, in float64) float64 {
				return in * 0.9
			}},
		})
	}
	for i := 0; i < pieces; i++ {
		next := blocks.Sub((i + 1) % pieces)
		rt.Launch(visibility.TaskSpec{
			Name:     fmt.Sprintf("leak[%d]", i),
			Accesses: []visibility.Access{visibility.Reduce(visibility.OpSum, next, "heat")},
			Kernel:   visibility.Kernel{Reduce: func(_ int, _ visibility.Point) float64 { return 0.125 }},
		})
	}
}

func run(total int, resumeFrom *bytes.Buffer, traced bool) *visibility.Runtime {
	var rt *visibility.Runtime
	var heat *visibility.Region
	var blocks *visibility.Partition
	cfg := visibility.Config{AutoTrace: traced, Validate: true}
	if resumeFrom != nil {
		var roots map[string]*visibility.Region
		var err error
		rt, roots, err = visibility.Restore(resumeFrom, cfg)
		if err != nil {
			log.Fatal(err)
		}
		heat = roots["heat"]
		blocks = heat.Partitions()[0]
	} else {
		rt = visibility.New(cfg)
		heat = rt.CreateRegion("heat", visibility.Line(0, cells-1), "heat")
		heat.Init("heat", func(p visibility.Point) float64 { return 100 + float64(p.C[0]) })
		blocks = heat.PartitionEqual("blocks", pieces)
	}
	for s := 0; s < total; s++ {
		step(rt, heat, blocks)
	}
	rt.Wait()
	return rt
}

func main() {
	// Uninterrupted reference run, untraced.
	ref := run(steps, nil, false)
	defer ref.Close()

	// Autotraced run that checkpoints midway and resumes in a new runtime.
	first := run(cut, nil, true)
	var ckpt bytes.Buffer
	if err := first.Checkpoint(&ckpt); err != nil {
		log.Fatal(err)
	}
	size := ckpt.Len()
	st := first.TraceStats(first.Region("heat"))
	first.Close()

	resumed := run(steps-cut, &ckpt, true)
	defer resumed.Close()

	// Compare final states.
	want := ref.Read(ref.Region("heat"), "heat")
	got := resumed.Read(resumed.Region("heat"), "heat")
	var maxErr float64
	want.Each(func(p visibility.Point, w float64) {
		g, _ := got.Get(p)
		if d := w - g; d > maxErr || -d > maxErr {
			if d < 0 {
				d = -d
			}
			maxErr = d
		}
	})
	if maxErr > 1e-9 {
		log.Fatalf("resumed run diverged: max error %v", maxErr)
	}
	fmt.Printf("checkpoint at step %d (%d bytes JSON), resumed to step %d: matches uninterrupted run ✓\n",
		cut, size, steps)
	fmt.Printf("first segment autotracing: recorded=%d replayed=%d\n", st.Recorded, st.Replayed)
}
