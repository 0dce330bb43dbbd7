// Package pennant builds the PENNANT mini-app benchmark of §8 [12]: 2-D
// Lagrangian hydrodynamics on an unstructured mesh of zones and points.
// Zones are private to a piece; mesh points on piece boundaries are shared,
// giving an aliased ghost-point partition, and point forces are gathered
// with sum-reductions while the global timestep is computed with min/max
// reductions onto a single control element — several distinct reduction
// operators used in different parts of the code, as the paper notes.
package pennant

import (
	"fmt"

	"visibility/internal/apps"
	"visibility/internal/core"
	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/index"
	"visibility/internal/privilege"
	"visibility/internal/region"
)

const (
	// zonesPerPiece / pointsPerPiece size one node's share of the mesh.
	zonesPerPiece  = 2048
	pointsPerPiece = 2112
	// haloPoints is how many boundary points a piece shares with each
	// neighbor; adjacent pieces' ghost sets overlap (aliased).
	haloPoints = 64
	// modelZonesPerNode is the plotted work unit.
	modelZonesPerNode = 262144
	// Kernel durations for the five phases of one hydro cycle.
	cfzSeconds = 1.0e-3
	afSeconds  = 3.0e-4
	azSeconds  = 6.0e-4
	eosSeconds = 4.0e-4
	cdtSeconds = 3.0e-4
)

// New builds the pennant instance for a node count, with the global
// timestep routed through the region system (a single control element
// receiving min/max reductions).
func New(nodes int) *apps.Instance { return build(nodes, false) }

// NewFutures builds the pennant variant that computes the global timestep
// through futures, as the real PENNANT port does: calc_dt tasks return
// futures, a folding task consumes them, and the next cycle's tasks
// consume the folded future — ordering edges and small messages instead
// of region coherence traffic.
func NewFutures(nodes int) *apps.Instance { return build(nodes, true) }

func build(nodes int, useFutures bool) *apps.Instance {
	fs := field.NewSpace()
	fZP := fs.Add("zp")   // zone pressure
	fZR := fs.Add("zr")   // zone density
	fPF := fs.Add("pf")   // point force (sum reductions)
	fPU := fs.Add("pu")   // point velocity
	fDT := fs.Add("dt")   // global timestep (min reduction)
	fDE := fs.Add("derr") // global error estimate (max reduction)

	// Index layout: zones, then points, then one control element, each
	// piece contiguous, so the "owned" partition is disjoint-complete.
	zTotal := int64(nodes) * zonesPerPiece
	pTotal := int64(nodes) * pointsPerPiece
	ctrl := geometry.Pt1(zTotal + pTotal)
	tree := region.NewTree("pennant", index.FromRect(geometry.R1(0, zTotal+pTotal)), fs)

	zoneBlock := func(i int) geometry.Rect {
		return geometry.R1(int64(i)*zonesPerPiece, int64(i+1)*zonesPerPiece-1)
	}
	pointBlock := func(i int) geometry.Rect {
		return geometry.R1(zTotal+int64(i)*pointsPerPiece, zTotal+int64(i+1)*pointsPerPiece-1)
	}

	ownedPieces := make([]index.Space, nodes)
	zonePieces := make([]index.Space, nodes)
	pointPieces := make([]index.Space, nodes)
	ghostPieces := make([]index.Space, nodes)
	for i := 0; i < nodes; i++ {
		zonePieces[i] = index.FromRect(zoneBlock(i))
		pointPieces[i] = index.FromRect(pointBlock(i))
		ownedPieces[i] = zonePieces[i].Union(pointPieces[i])
		if i == 0 {
			ownedPieces[i] = ownedPieces[i].Union(index.FromPoints(1, ctrl))
		}
		// Ghost points: boundary points of the ring neighbors, plus a few
		// points of the second neighbor (mesh corners touch diagonal
		// pieces in an unstructured decomposition), which makes adjacent
		// pieces' ghost sets overlap — an aliased partition.
		var halo []geometry.Rect
		if nodes > 1 {
			r := pointBlock((i + 1) % nodes)
			halo = append(halo, geometry.R1(r.Lo.C[0], r.Lo.C[0]+haloPoints-1))
			l := pointBlock((i - 1 + nodes) % nodes)
			halo = append(halo, geometry.R1(l.Hi.C[0]-haloPoints+1, l.Hi.C[0]))
			rr := pointBlock((i + 2) % nodes)
			halo = append(halo, geometry.R1(rr.Lo.C[0], rr.Lo.C[0]+haloPoints/4-1))
		}
		ghostPieces[i] = index.FromRects(1, halo...)
	}
	owned := tree.Root.Partition("owned", ownedPieces)
	pz := tree.Root.Partition("PZ", zonePieces)
	pp := tree.Root.Partition("PP", pointPieces)
	gp := tree.Root.Partition("GP", ghostPieces)
	dt := tree.Root.Partition("DT", []index.Space{index.FromPoints(1, ctrl)})
	dtReg := dt.Subregions[0]

	name := "pennant"
	if useFutures {
		name = "pennant-futures"
	}
	inst := &apps.Instance{
		Name:         name,
		Tree:         tree,
		Owned:        owned,
		UnitsPerNode: modelZonesPerNode,
		UnitName:     "zones",
	}
	// lastFinalize carries the previous cycle's dt future across Emit
	// calls in the futures variant.
	lastFinalize := -1
	inst.EmitInit = func(s *core.Stream) []apps.Launch {
		// Mesh setup: per-piece zone and point state, then the initial
		// global timestep on node 0.
		launches := make([]apps.Launch, 0, 2*nodes+1)
		for i := 0; i < nodes; i++ {
			tz := s.Launch(fmt.Sprintf("init_zones[%d]", i),
				core.Req{Region: pz.Subregions[i], Field: fZR, Priv: privilege.Writes()},
				core.Req{Region: pz.Subregions[i], Field: fZP, Priv: privilege.Writes()})
			launches = append(launches, apps.Launch{Task: tz, Node: i, Duration: eosSeconds})
			tp := s.Launch(fmt.Sprintf("init_points[%d]", i),
				core.Req{Region: pp.Subregions[i], Field: fPF, Priv: privilege.Writes()},
				core.Req{Region: pp.Subregions[i], Field: fPU, Priv: privilege.Writes()})
			launches = append(launches, apps.Launch{Task: tp, Node: i, Duration: afSeconds})
		}
		t0 := s.Launch("init_dt",
			core.Req{Region: dtReg, Field: fDT, Priv: privilege.Writes()},
			core.Req{Region: dtReg, Field: fDE, Priv: privilege.Writes()})
		launches = append(launches, apps.Launch{Task: t0, Node: 0, Duration: 1e-5})
		return launches
	}
	inst.Emit = func(s *core.Stream, iter int) []apps.Launch {
		launches := make([]apps.Launch, 0, 5*nodes)
		// Phase 1: gather corner forces; reductions reach ghost points.
		// The current timestep arrives either through the dt region or as
		// last cycle's folded future.
		for i := 0; i < nodes; i++ {
			reqs := []core.Req{
				{Region: pz.Subregions[i], Field: fZP, Priv: privilege.Reads()},
				{Region: pp.Subregions[i], Field: fPF, Priv: privilege.Reduces(privilege.OpSum)},
				{Region: gp.Subregions[i], Field: fPF, Priv: privilege.Reduces(privilege.OpSum)},
			}
			if !useFutures {
				reqs = append(reqs, core.Req{Region: dtReg, Field: fDT, Priv: privilege.Reads()})
			}
			cfz := s.Launch(fmt.Sprintf("calc_forces[%d]", i), reqs...)
			if useFutures && lastFinalize >= 0 {
				cfz.FutureDeps = []int{lastFinalize}
			}
			launches = append(launches, apps.Launch{Task: cfz, Node: i, Duration: cfzSeconds})
		}
		// Phase 2: apply forces to points.
		for i := 0; i < nodes; i++ {
			af := s.Launch(fmt.Sprintf("apply_forces[%d]", i),
				core.Req{Region: pp.Subregions[i], Field: fPU, Priv: privilege.Writes()},
				core.Req{Region: pp.Subregions[i], Field: fPF, Priv: privilege.Writes()})
			launches = append(launches, apps.Launch{Task: af, Node: i, Duration: afSeconds})
		}
		// Phase 3: advance zones from point velocities (incl. ghosts).
		for i := 0; i < nodes; i++ {
			az := s.Launch(fmt.Sprintf("adv_zones[%d]", i),
				core.Req{Region: pz.Subregions[i], Field: fZR, Priv: privilege.Writes()},
				core.Req{Region: pp.Subregions[i], Field: fPU, Priv: privilege.Reads()},
				core.Req{Region: gp.Subregions[i], Field: fPU, Priv: privilege.Reads()})
			launches = append(launches, apps.Launch{Task: az, Node: i, Duration: azSeconds})
		}
		// Phase 4: equation of state.
		for i := 0; i < nodes; i++ {
			eos := s.Launch(fmt.Sprintf("eos[%d]", i),
				core.Req{Region: pz.Subregions[i], Field: fZP, Priv: privilege.Writes()},
				core.Req{Region: pz.Subregions[i], Field: fZR, Priv: privilege.Reads()})
			launches = append(launches, apps.Launch{Task: eos, Node: i, Duration: eosSeconds})
		}
		// Phase 5: per-piece timestep proposals. In the region variant the
		// proposals are min/max reductions onto the control element; in
		// the futures variant each calc_dt returns a future.
		var cdtIDs []int
		for i := 0; i < nodes; i++ {
			reqs := []core.Req{
				{Region: pz.Subregions[i], Field: fZR, Priv: privilege.Reads()},
			}
			if !useFutures {
				reqs = append(reqs,
					core.Req{Region: dtReg, Field: fDT, Priv: privilege.Reduces(privilege.OpMin)},
					core.Req{Region: dtReg, Field: fDE, Priv: privilege.Reduces(privilege.OpMax)})
			}
			cdt := s.Launch(fmt.Sprintf("calc_dt[%d]", i), reqs...)
			cdtIDs = append(cdtIDs, cdt.ID)
			launches = append(launches, apps.Launch{Task: cdt, Node: i, Duration: cdtSeconds})
		}
		// Phase 6: fold the proposals into the new timestep — one task on
		// node 0, completing the all-reduce (N→1→N each cycle).
		if useFutures {
			fin := s.Launch("fold_dt",
				core.Req{Region: dt.Subregions[0], Field: fDT, Priv: privilege.Writes()})
			fin.FutureDeps = cdtIDs
			lastFinalize = fin.ID
			launches = append(launches, apps.Launch{Task: fin, Node: 0, Duration: 1e-5})
		} else {
			fin := s.Launch("finalize_dt",
				core.Req{Region: dtReg, Field: fDT, Priv: privilege.Writes()},
				core.Req{Region: dtReg, Field: fDE, Priv: privilege.Writes()})
			launches = append(launches, apps.Launch{Task: fin, Node: 0, Duration: 1e-5})
		}
		return launches
	}
	return inst
}
