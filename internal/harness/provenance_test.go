package harness

import (
	"math/rand"
	"testing"

	"visibility"
	"visibility/internal/algo"
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
		for _, name := range algo.Names() {
			newAn, err := algo.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			an := newAn(tree, core.Options{})
			c := counts[name]
			if c == nil {
				c = &tally{}
				counts[name] = c
			}
			exact := name == "raycast" || name == "warnock"
			for _, task := range stream.Tasks {
				for _, d := range an.Analyze(task).Deps {
					r, ok := core.RegionReason(stream.Tasks, d, task.ID, name)
					c.edges++
					switch {
					case r.Kind != core.ReasonRegion:
						t.Fatalf("seed %d %s: edge %d→%d has no interfering requirement pair", seed, name, d, task.ID)
					case !ok && exact:
						t.Fatalf("seed %d %s: edge %d→%d has no live witness: every shared point was overwritten", seed, name, d, task.ID)
					case !ok:
						c.witnessless++
					}
				}
			}
		}
	}
	for _, name := range algo.Names() {
		c := counts[name]
		t.Logf("%-12s %7d edges, %7d without a live witness (%.0f%%)",
			name, c.edges, c.witnessless, 100*float64(c.witnessless)/float64(max(c.edges, 1)))
	}
}

// TestChaosProvenanceReplay drives a periodic chaos stream through a
// Runtime with AutoTrace and explains every launch: edges into replayed
// launches are replay edges naming the committed trace, edges into
// analyzed launches are region edges with a live witness, and every
// dependence row is explained edge for edge.
func TestChaosProvenanceReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tree := chaosTree(rng)
	loop := chaosLoopStream(rng, tree, 10)

	rt := visibility.New(visibility.Config{AutoTrace: true, Workers: 1})
	defer rt.Close()
	regions := mirror(rt, tree)
	root := regions[tree.Root.ID]
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

	replayEdges := 0
	for _, ti := range rt.Dependences(root) {
		ex := rt.Explain(root, ti.ID)
		if len(ex.Edges) != len(ti.Deps) {
			t.Fatalf("task %d: %d explained edges for deps %v", ti.ID, len(ex.Edges), ti.Deps)
		}
		for i, e := range ex.Edges {
			if e.Src != ti.Deps[i] || e.Analyzer != "raycast" {
				t.Fatalf("task %d: edge %+v for dep %d", ti.ID, e, ti.Deps[i])
			}
			switch e.Kind {
			case "replay":
				replayEdges++
				if e.Trace < 0 {
					t.Fatalf("task %d: replay edge from %d without a trace id", ti.ID, e.Src)
				}
			case "region":
				if e.Overlap == "" {
					t.Fatalf("task %d: region edge from %d without a live witness", ti.ID, e.Src)
				}
			default:
				t.Fatalf("task %d: edge from %d of kind %q", ti.ID, e.Src, e.Kind)
			}
		}
	}
	if replayed := rt.AutoTraceStats(root).Trace.Replayed; replayed == 0 || replayEdges == 0 {
		t.Fatalf("replayed %d launches, %d replay edges; the replay leg tested nothing",
			replayed, replayEdges)
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
