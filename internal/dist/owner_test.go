package dist_test

import (
	"math/rand"
	"sync"
	"testing"

	"visibility/internal/algo"
	"visibility/internal/apps"
	"visibility/internal/apps/circuit"
	"visibility/internal/apps/pennant"
	"visibility/internal/apps/stencil"
	"visibility/internal/cluster"
	"visibility/internal/core"
	"visibility/internal/dist"
	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/index"
	"visibility/internal/region"
)

// TestDriverResolvesOwnersOnce drives each application through each
// analyzer on dist.Driver at 16 nodes, with DCR, and counts the BVH
// queries OwnerByPartition makes. An owner is a function of immutable
// geometry, and the driver asks again for every initial-data plan entry of
// every launch (the painter lists a region's initial contents under later
// writes), so after initialization nothing is resolved: those asks are
// memo hits. So are pennant Warnock's first resolutions of the 16 geometry
// nodes it first meets in iteration 1 (crosscheck.TestOwnerResolvedOncePerSet):
// their low corners were asked during initialization.
func TestDriverResolvesOwnersOnce(t *testing.T) {
	for _, app := range []struct {
		name  string
		build apps.Builder
	}{{"circuit", circuit.New}, {"stencil", stencil.New}, {"pennant", pennant.New}} {
		for _, alg := range []string{"raycast", "warnock", "paint"} {
			newAn, err := algo.Lookup(alg)
			if err != nil {
				t.Fatal(err)
			}
			const nodes = 16
			inst := app.build(nodes)
			owner, queries := dist.OwnerWithQueries(inst.Owned, nodes)
			d := dist.New(cluster.New(cluster.DefaultConfig(nodes)), inst.Tree, dist.NewAnalyzerFunc(newAn), owner, dist.DefaultConfig(true))
			stream := core.NewStream(inst.Tree)
			run := func(ls []apps.Launch) {
				for _, l := range ls {
					d.Launch(l.Task, dist.OwnerMapper{}.Place(l.Task, l.Node, nodes), l.Duration)
				}
			}
			if inst.EmitInit != nil {
				run(inst.EmitInit(stream))
			}
			run(inst.Emit(stream, 0))
			for iter := 1; iter <= 4; iter++ {
				before := queries()
				run(inst.Emit(stream, iter))
				if got := queries() - before; got != 0 {
					t.Errorf("%s/%s: iteration %d made %d owner queries, want 0", app.name, alg, iter, got)
				}
			}
		}
	}
}

type ownerTree struct {
	name string
	p    *region.Partition
}

// ownerTrees are the partitions the memo is checked on: circuit's
// two-rectangle 1-D pieces, stencil's one-rectangle 2-D blocks, and a 2-D
// grid of 2×2 cells dealt round-robin to 20 pieces, so every piece is many
// rectangles and pieces wrap around 16 nodes.
func ownerTrees() []ownerTree {
	const cols, rows, pieces = 12, 10, 20
	cells := make([][]geometry.Rect, pieces)
	for cx := int64(0); cx < cols; cx++ {
		for cy := int64(0); cy < rows; cy++ {
			i := (cx*7 + cy*3) % pieces
			cells[i] = append(cells[i], geometry.R2(2*cx, 2*cy, 2*cx+1, 2*cy+1))
		}
	}
	spaces := make([]index.Space, pieces)
	for i, rs := range cells {
		spaces[i] = index.FromRects(2, rs...)
	}
	fs := field.NewSpace()
	fs.Add("v")
	grid := region.NewTree("grid", index.FromRect(geometry.R2(0, 0, 2*cols-1, 2*rows-1)), fs)
	return []ownerTree{
		{"circuit", circuit.New(16).Owned},
		{"stencil", stencil.New(16).Owned},
		{"cells", grid.Root.Partition("cells", spaces)},
	}
}

// randomSpaces returns n non-empty spaces of one to three rectangles
// around p's bounds, and, after them, spaces whose low corner lies below
// p's on every axis while they still overlap p.
func randomSpaces(rng *rand.Rand, p *region.Partition, n int) (spaces []index.Space, outside []index.Space) {
	b := p.Space().Bounds()
	dim := b.Dim
	coord := func(a int, pad int64) int64 {
		return b.Lo.C[a] - pad + rng.Int63n(b.Hi.C[a]-b.Lo.C[a]+1+2*pad)
	}
	for len(spaces) < n {
		rs := make([]geometry.Rect, 1+rng.Intn(3))
		for j := range rs {
			r := geometry.Rect{Dim: dim}
			for a := 0; a < dim; a++ {
				r.Lo.C[a] = coord(a, 4)
				r.Hi.C[a] = r.Lo.C[a] + rng.Int63n(8)
			}
			rs[j] = r
		}
		spaces = append(spaces, index.FromRects(dim, rs...))
	}
	for len(outside) < n/20 {
		r := geometry.Rect{Dim: dim}
		for a := 0; a < dim; a++ {
			r.Lo.C[a] = b.Lo.C[a] - 1 - rng.Int63n(5)
			r.Hi.C[a] = b.Lo.C[a] + rng.Int63n(5)
		}
		outside = append(outside, index.FromRect(r))
	}
	return spaces, outside
}

// TestOwnerMemoAgreesWithFreshOwner asks one long-lived owner about random
// spaces, each several times in shuffled order, and holds every answer to
// a fresh OwnerByPartition built for that single question: the memo never
// changes an answer, whatever was asked before. Spaces whose low corner
// lies outside p answer 0 even though they overlap p.
func TestOwnerMemoAgreesWithFreshOwner(t *testing.T) {
	const nodes = 16
	for k, tc := range ownerTrees() {
		rng := rand.New(rand.NewSource(int64(1 + k)))
		spaces, outside := randomSpaces(rng, tc.p, 1000)
		for _, sp := range outside {
			if !sp.Overlaps(tc.p.Space()) {
				t.Fatalf("%s: %v does not overlap the partition", tc.name, sp)
			}
		}
		spaces = append(spaces, outside...)
		var asks []int
		for i := range spaces {
			for r := 1 + rng.Intn(3); r > 0; r-- {
				asks = append(asks, i)
			}
		}
		rng.Shuffle(len(asks), func(i, j int) { asks[i], asks[j] = asks[j], asks[i] })
		owner := dist.OwnerByPartition(tc.p, nodes)
		for _, i := range asks {
			got, want := owner(spaces[i]), dist.OwnerByPartition(tc.p, nodes)(spaces[i])
			if got != want {
				t.Fatalf("%s: owner(%v) = %d after %d asks, a fresh owner says %d", tc.name, spaces[i], got, len(asks), want)
			}
			if i >= len(spaces)-len(outside) && got != 0 {
				t.Fatalf("%s: owner(%v) = %d, want 0 for a low corner outside the partition", tc.name, spaces[i], got)
			}
		}
	}
}

// TestOwnerConcurrent asks one owner from four goroutines at once, each in
// its own order, so that the race detector sees the memo's lock.
func TestOwnerConcurrent(t *testing.T) {
	const nodes, workers = 16, 4
	for k, tc := range ownerTrees() {
		rng := rand.New(rand.NewSource(int64(100 + k)))
		spaces, outside := randomSpaces(rng, tc.p, 1000)
		spaces = append(spaces, outside...)
		want := make([]int, len(spaces))
		for i, sp := range spaces {
			want[i] = dist.OwnerByPartition(tc.p, nodes)(sp)
		}
		orders := make([][]int, workers)
		for w := range orders {
			orders[w] = rng.Perm(len(spaces))
		}
		owner := dist.OwnerByPartition(tc.p, nodes)
		wrong := make([]int, workers)
		var wg sync.WaitGroup
		for w := range orders {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, i := range orders[w] {
					if owner(spaces[i]) != want[i] {
						wrong[w]++
					}
				}
			}()
		}
		wg.Wait()
		for w, n := range wrong {
			if n != 0 {
				t.Errorf("%s: goroutine %d got %d wrong answers", tc.name, w, n)
			}
		}
	}
}
