package crosscheck

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"visibility/internal/apps"
	"visibility/internal/apps/circuit"
	"visibility/internal/apps/pennant"
	"visibility/internal/apps/stencil"
	"visibility/internal/core"
	"visibility/internal/fault"
	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/harness"
	"visibility/internal/index"
	"visibility/internal/privilege"
	"visibility/internal/raycast"
	"visibility/internal/region"
	"visibility/internal/warnock"
)

// precisionStream is one stream the precision tests replay: a tree and
// its launches in order.
type precisionStream struct {
	name  string
	tree  *region.Tree
	tasks []*core.Task
}

// precisionStreams returns chaos seeds 1–200 at 60 launches each, then
// initialization and iterations 0–6 of the three applications at 4 and 16
// nodes, then migrationStream.
func precisionStreams() []precisionStream {
	out := []precisionStream{migrationStream()}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tree := harness.ChaosTree(rng)
		out = append(out, precisionStream{fmt.Sprintf("chaos seed %d", seed), tree, harness.ChaosStream(rng, tree, 60).Tasks})
	}
	for _, app := range []struct {
		name  string
		build apps.Builder
	}{{"circuit", circuit.New}, {"stencil", stencil.New}, {"pennant", pennant.New}} {
		for _, nodes := range []int{4, 16} {
			inst := app.build(nodes)
			s := core.NewStream(inst.Tree)
			if inst.EmitInit != nil {
				inst.EmitInit(s)
			}
			for iter := 0; iter <= 6; iter++ {
				inst.Emit(s, iter)
			}
			out = append(out, precisionStream{fmt.Sprintf("%s n%d", app.name, nodes), inst.Tree, s.Tasks})
		}
	}
	return out
}

// migrationStream moves ray casting's buckets between two disjoint-complete
// partitions of a line, a coarse one and a fine one, under reads of halos
// that straddle both: re-bucketing cuts sets that hold read footprints.
func migrationStream() precisionStream {
	fs := field.NewSpace()
	f := fs.Add("v")
	tree := region.NewTree("A", index.FromRect(geometry.R1(0, 63)), fs)
	pieces := func(lo, n, width int64) []index.Space {
		out := make([]index.Space, n)
		for i := range out {
			out[i] = index.FromRect(geometry.R1(lo+int64(i)*width, lo+int64(i+1)*width-1))
		}
		return out
	}
	coarse := tree.Root.Partition("coarse", pieces(0, 2, 32)).Subregions
	fine := tree.Root.Partition("fine", pieces(0, 8, 8)).Subregions
	halo := tree.Root.Partition("halo", []index.Space{
		index.FromRect(geometry.R1(4, 11)), index.FromRect(geometry.R1(28, 35)), index.FromRect(geometry.R1(52, 59)),
	}).Subregions
	s := core.NewStream(tree)
	for round := 0; round < 3; round++ {
		for k := 0; k < 12; k++ {
			s.Launch("wc", core.Req{Region: coarse[k%2], Field: f, Priv: privilege.Writes()})
			s.Launch("rh", core.Req{Region: halo[k%3], Field: f, Priv: privilege.Reads()})
		}
		// The odd pieces first: the eighth launch on the fine partition
		// re-buckets the even pieces' points, still in sets that span
		// two of them, before the writes that reach them.
		for k, i := range []int{1, 3, 5, 7, 1, 3, 5, 7, 2, 0, 6, 4} {
			s.Launch("wf", core.Req{Region: fine[i], Field: f, Priv: privilege.Writes()})
			s.Launch("rh", core.Req{Region: halo[k%3], Field: f, Priv: privilege.Reads()})
		}
	}
	return precisionStream{"migration", tree, s.Tasks}
}

// TestRaycastDepsEqualWarnock is the precision oracle of ray casting's
// reads, which leave the sets they cover in part whole: its deduplicated
// deps must equal Warnock's, whose monotone tree is cut by every
// requirement, launch for launch. A read footprint a split fails to narrow
// leaves the read in a fragment it never touched, and a later write there
// gains an edge Warnock does not report. A second leg forces splits and
// re-bucketing on sets that hold footprints; neither may move a dep.
func TestRaycastDepsEqualWarnock(t *testing.T) {
	for _, plan := range []string{"", "seed=1;analyzer.eqset.split=p=0.5;analyzer.eqset.migrate=p=0.25"} {
		launches := 0
		for _, ps := range precisionStreams() {
			var opts core.Options
			if plan != "" {
				inj, err := fault.NewFromString(plan)
				if err != nil {
					t.Fatal(err)
				}
				opts.Faults = inj
			}
			rc, w := raycast.New(ps.tree, opts), warnock.New(ps.tree, core.Options{})
			for _, task := range ps.tasks {
				got, want := rc.Analyze(task).Deps, w.Analyze(task).Deps
				if !slices.Equal(got, want) {
					t.Fatalf("plan %q, %s, task %d (%s): raycast deps %v, warnock %v", plan, ps.name, task.ID, task.Name, got, want)
				}
				launches++
			}
		}
		t.Logf("plan %q: %d launches, deps equal", plan, launches)
	}
}

// TestRaycastPlansTile holds ray casting's plans to exact coherence: for
// every read and read-write requirement, the write and initial entries of
// its plan tile the region, with no point listed twice and none missing.
// A read scans each set it covers in part with only the part inside its
// region, so this is what guards that clipping.
func TestRaycastPlansTile(t *testing.T) {
	reqs := 0
	for _, ps := range precisionStreams() {
		rc := raycast.New(ps.tree, core.Options{})
		for _, task := range ps.tasks {
			res := rc.Analyze(task) // plans are lent until the next Analyze
			for ri, req := range task.Reqs {
				if req.Priv.IsReduce() || req.Region.Space.IsEmpty() {
					continue
				}
				reqs++
				var pieces []index.Space
				var vol int64
				for _, v := range res.Plans[ri] {
					if v.Priv.IsWrite() {
						pieces = append(pieces, v.Pts)
						vol += v.Pts.Volume()
					}
				}
				sp := req.Region.Space
				union := index.UnionAll(sp.Dim(), pieces)
				if !union.Equal(sp) || vol != sp.Volume() {
					t.Fatalf("%s, task %d (%s) requirement %d: write entries cover %v in %d points, the region is %v in %d",
						ps.name, task.ID, task.Name, ri, union, vol, sp, sp.Volume())
				}
			}
		}
	}
	t.Logf("%d requirements tiled", reqs)
}
