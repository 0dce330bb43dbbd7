package harness

import (
	"math/rand"
	"reflect"
	"testing"

	"visibility"
	"visibility/internal/core"
	"visibility/internal/field"
	"visibility/internal/region"
)

// TestChaosProvenanceCompleteness is the precision oracle of the derived
// edge reasons over 50 chaos seeds. Every raycast and warnock edge has a
// live witness — a point of Src that Dst still sees — so the exact
// analyzers report no edge the visibility rule would not. Every paint and
// paint-naive edge has at least an interfering requirement pair; the
// share with no live witness (conservative edges) is logged.
func TestChaosProvenanceCompleteness(t *testing.T) {
	type tally struct{ edges, witnessless int }
	counts := make(map[string]*tally)
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tree := chaosTree(rng)
		stream := chaosStream(rng, tree, 150)
		for _, fac := range oracleFactories(core.Options{}) {
			name, an := fac.Name, fac.New(tree)
			c := counts[name]
			if c == nil {
				c = &tally{}
				counts[name] = c
			}
			exact := name == "raycast" || name == "warnock"
			for _, task := range stream.Tasks {
				for _, d := range an.Analyze(task).Deps {
					si, _, overlap := core.RegionReason(stream.Tasks, d, task.ID)
					c.edges++
					switch {
					case si < 0:
						t.Fatalf("seed %d %s: edge %d→%d has no interfering requirement pair", seed, name, d, task.ID)
					case overlap.Empty() && exact:
						t.Fatalf("seed %d %s: edge %d→%d has no live witness: every shared point was overwritten", seed, name, d, task.ID)
					case overlap.Empty():
						c.witnessless++
					}
				}
			}
		}
	}
	for _, fac := range oracleFactories(core.Options{}) {
		name, c := fac.Name, counts[fac.Name]
		t.Logf("%-12s %7d edges, %7d without a live witness (%.0f%%)",
			name, c.edges, c.witnessless, 100*float64(c.witnessless)/float64(max(c.edges, 1)))
	}
}

// TestChaosProvenanceReplay drives a periodic chaos stream through a
// Runtime with AutoTrace and through one without, and explains every
// launch: every edge, replayed or analyzed, is a region edge with a live
// witness, every dependence row is explained edge for edge, and the
// autotraced Runtime explains every task exactly as the untraced one does.
func TestChaosProvenanceReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tree := chaosTree(rng)
	loop := chaosLoopStream(rng, tree, 10)

	run := func(autoTrace bool) (*visibility.Runtime, *visibility.Region) {
		rt := visibility.New(visibility.Config{AutoTrace: autoTrace})
		t.Cleanup(rt.Close)
		regions := mirror(rt, tree)
		for _, task := range loop.Tasks {
			spec := visibility.TaskSpec{Name: task.Name}
			for _, req := range task.Reqs {
				access := visibility.Write // the loop stream only reads and writes
				if req.Priv.IsRead() {
					access = visibility.Read
				}
				spec.Accesses = append(spec.Accesses, access(regions[req.Region.ID], tree.Fields.Name(req.Field)))
			}
			rt.Launch(spec)
		}
		rt.Wait()
		return rt, regions[tree.Root.ID]
	}
	rt, root := run(true)
	plain, plainRoot := run(false)

	for _, ti := range rt.Dependences(root) {
		ex := rt.Explain(root, ti.ID)
		if len(ex.Edges) != len(ti.Deps) {
			t.Fatalf("task %d: %d explained edges for deps %v", ti.ID, len(ex.Edges), ti.Deps)
		}
		for i, e := range ex.Edges {
			if e.Src != ti.Deps[i] || e.Kind != "region" || e.Overlap == "" {
				t.Fatalf("task %d: edge %+v for dep %d is not a region edge with a live witness", ti.ID, e, ti.Deps[i])
			}
		}
		if want := plain.Explain(plainRoot, ti.ID); !reflect.DeepEqual(ex, want) {
			t.Fatalf("task %d: autotraced explain %+v, untraced %+v", ti.ID, ex, want)
		}
	}
	if replayed := rt.AutoTraceStats(root).Trace.Replayed; replayed == 0 {
		t.Fatal("replayed no launch; the replay leg tested nothing")
	}
}

// mirror recreates tree's regions and partitions, in creation order, on
// rt, indexed by region ID.
func mirror(rt *visibility.Runtime, tree *region.Tree) []*visibility.Region {
	var fields []string
	for f := 0; f < tree.Fields.Len(); f++ {
		fields = append(fields, tree.Fields.Name(field.ID(f)))
	}
	out := make([]*visibility.Region, tree.NumRegions())
	out[0] = rt.CreateRegion(tree.Root.Name, tree.Root.Space, fields...)
	for i := 0; i < tree.NumPartitions(); i++ {
		p := tree.PartitionAt(i)
		pieces := make([]visibility.IndexSpace, len(p.Subregions))
		for j, sub := range p.Subregions {
			pieces[j] = sub.Space
		}
		vp := out[p.Parent.ID].Partition(p.Name, pieces)
		for j, sub := range p.Subregions {
			out[sub.ID] = vp.Sub(j)
		}
	}
	return out
}
