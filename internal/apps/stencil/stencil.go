// Package stencil builds the 2-D 9-point stencil benchmark of §8: a
// structured regular grid of cells partitioned into one block per node,
// with an aliased ghost partition of width-2 halo strips (two cells in
// each cardinal direction, no corners) and a data-parallel increment phase
// intermixed with the stencil phase, following the Parallel Research
// Kernels stencil [26].
package stencil

import (
	"visibility/internal/apps"
	"visibility/internal/core"
	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/index"
	"visibility/internal/privilege"
	"visibility/internal/region"
)

const (
	// blockSide is the cells per side of one node's block (weak scaling:
	// the grid grows with the machine).
	blockSide = 2048
	// radius is the stencil radius (two cells each direction, §8).
	radius = 2
	// stencilSeconds and incSeconds are the kernel durations, calibrated
	// to a GPU sweeping ~10⁹-10¹⁰ cell-updates per second.
	stencilSeconds = 4.0e-4
	incSeconds     = 1.0e-4
)

// grid factors nodes into the most square px × py arrangement.
func grid(nodes int) (int, int) {
	px := 1
	for f := 1; f*f <= nodes; f++ {
		if nodes%f == 0 {
			px = f
		}
	}
	return px, nodes / px
}

// New builds the stencil instance for a node count.
func New(nodes int) *apps.Instance {
	px, py := grid(nodes)
	fs := field.NewSpace()
	fin := fs.Add("in")
	fout := fs.Add("out")

	w := int64(px) * blockSide
	h := int64(py) * blockSide
	tree := region.NewTree("grid", index.FromRect(geometry.R2(0, 0, w-1, h-1)), fs)

	block := func(i int) geometry.Rect {
		cx, cy := int64(i%px), int64(i/px)
		return geometry.R2(cx*blockSide, cy*blockSide, (cx+1)*blockSide-1, (cy+1)*blockSide-1)
	}
	pieces := make([]index.Space, nodes)
	halos := make([]index.Space, nodes)
	root := tree.Root.Space
	for i := 0; i < nodes; i++ {
		b := block(i)
		pieces[i] = index.FromRect(b)
		// Width-`radius` strips in the four cardinal directions, clipped
		// to the grid (non-periodic): the star stencil needs no corners.
		strips := []geometry.Rect{
			geometry.R2(b.Lo.C[0], b.Lo.C[1]-radius, b.Hi.C[0], b.Lo.C[1]-1),
			geometry.R2(b.Lo.C[0], b.Hi.C[1]+1, b.Hi.C[0], b.Hi.C[1]+radius),
			geometry.R2(b.Lo.C[0]-radius, b.Lo.C[1], b.Lo.C[0]-1, b.Hi.C[1]),
			geometry.R2(b.Hi.C[0]+1, b.Lo.C[1], b.Hi.C[0]+radius, b.Hi.C[1]),
		}
		halos[i] = index.FromRects(2, strips...).Intersect(root)
	}
	owned := tree.Root.Partition("P", pieces)
	ghost := tree.Root.Partition("G", halos)

	// Task names, formatted once rather than per launch.
	initNames := apps.Names("init", nodes)
	stencilNames := apps.Names("stencil", nodes)
	incNames := apps.Names("inc", nodes)

	inst := &apps.Instance{
		Name:         "stencil",
		Tree:         tree,
		Owned:        owned,
		UnitsPerNode: float64(blockSide) * float64(blockSide),
		UnitName:     "points",
	}
	inst.EmitInit = func(s *core.Stream) []apps.Launch {
		// Per-piece initialization of both fields, as the PRK stencil's
		// setup loop does.
		launches := make([]apps.Launch, 0, 2*nodes)
		for i := 0; i < nodes; i++ {
			for _, f := range []field.ID{fin, fout} {
				t := s.Launch(initNames[i],
					core.Req{Region: owned.Subregions[i], Field: f, Priv: privilege.Writes()})
				launches = append(launches, apps.Launch{Task: t, Node: i, Duration: incSeconds})
			}
		}
		return launches
	}
	inst.Emit = func(s *core.Stream, iter int) []apps.Launch {
		launches := make([]apps.Launch, 0, 2*nodes)
		for i := 0; i < nodes; i++ {
			st := s.Launch(stencilNames[i],
				core.Req{Region: owned.Subregions[i], Field: fin, Priv: privilege.Reads()},
				core.Req{Region: ghost.Subregions[i], Field: fin, Priv: privilege.Reads()},
				core.Req{Region: owned.Subregions[i], Field: fout, Priv: privilege.Writes()})
			launches = append(launches, apps.Launch{Task: st, Node: i, Duration: stencilSeconds})
		}
		for i := 0; i < nodes; i++ {
			inc := s.Launch(incNames[i],
				core.Req{Region: owned.Subregions[i], Field: fin, Priv: privilege.Writes()})
			launches = append(launches, apps.Launch{Task: inc, Node: i, Duration: incSeconds})
		}
		return launches
	}
	return inst
}
