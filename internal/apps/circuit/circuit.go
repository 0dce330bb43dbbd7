// Package circuit builds the graph-based circuit simulation benchmark of
// §8 [22], the application the paper's running example (Figure 1) is
// derived from: an irregular graph of voltage nodes partitioned into
// pieces, an aliased ghost partition of the remote nodes each piece's
// wires reach, and per-iteration phases that read ghost voltages, reduce
// charge contributions onto shared nodes, and update owned voltages.
package circuit

import (
	"fmt"
	"math/rand"
	"sort"

	"visibility/internal/apps"
	"visibility/internal/core"
	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/index"
	"visibility/internal/privilege"
	"visibility/internal/region"
)

const (
	// nodesPerPiece is the number of voltage nodes owned by one piece.
	nodesPerPiece = 4096
	// wiresPerPiece is the number of wires owned by one piece (wires are
	// private to their piece; only their endpoints cross pieces).
	wiresPerPiece = 8192
	// externalNeighbors is how many distinct remote nodes a piece's
	// boundary wires reach in each of the near and far categories.
	nearExternal = 16
	farExternal  = 8
	// modelWiresPerNode is the plotted work unit per node per iteration.
	modelWiresPerNode = 65536
	// Kernel durations: calc_new_currents dominates (iterative wire
	// solve), distribute_charge and update_voltages are lighter.
	cncSeconds = 1.0e-2
	dcSeconds  = 4.0e-3
	uvSeconds  = 2.0e-3
)

// New builds the circuit instance for a node count. The graph structure is
// deterministic for a given node count.
func New(nodes int) *apps.Instance {
	fs := field.NewSpace()
	fVolt := fs.Add("voltage")
	fCharge := fs.Add("charge")
	fCur := fs.Add("current")

	// Index layout: voltage nodes first, then wires, one contiguous block
	// per piece each, so a single disjoint-complete "owned" partition
	// exists for the ray-casting heuristic (§7.1).
	nTotal := int64(nodes) * nodesPerPiece
	wTotal := int64(nodes) * wiresPerPiece
	tree := region.NewTree("circuit", index.FromRect(geometry.R1(0, nTotal+wTotal-1)), fs)

	nodeBlock := func(i int) geometry.Rect {
		return geometry.R1(int64(i)*nodesPerPiece, int64(i+1)*nodesPerPiece-1)
	}
	wireBlock := func(i int) geometry.Rect {
		return geometry.R1(nTotal+int64(i)*wiresPerPiece, nTotal+int64(i+1)*wiresPerPiece-1)
	}

	rng := rand.New(rand.NewSource(int64(nodes)*7919 + 17))
	ownedPieces := make([]index.Space, nodes)
	nodePieces := make([]index.Space, nodes)
	wirePieces := make([]index.Space, nodes)
	ghostPieces := make([]index.Space, nodes)
	for i := 0; i < nodes; i++ {
		nodePieces[i] = index.FromRect(nodeBlock(i))
		wirePieces[i] = index.FromRect(wireBlock(i))
		ownedPieces[i] = nodePieces[i].Union(wirePieces[i])

		// Ghost: boundary-zone nodes of ring neighbors plus a few random
		// far pieces — the irregular, piece-specific communication
		// pattern the paper calls out.
		var ext []geometry.Point
		pick := func(piece, n int) {
			if piece == i || piece < 0 {
				return
			}
			base := int64(piece) * nodesPerPiece
			for k := 0; k < n; k++ {
				ext = append(ext, geometry.Pt1(base+rng.Int63n(nodesPerPiece)))
			}
		}
		if nodes > 1 {
			pick((i+1)%nodes, nearExternal)
			pick((i-1+nodes)%nodes, nearExternal)
			for k := 0; k < farExternal; k++ {
				pick(rng.Intn(nodes), 1)
			}
		}
		sort.Slice(ext, func(a, b int) bool { return ext[a].C[0] < ext[b].C[0] })
		ghostPieces[i] = index.FromPoints(1, ext...)
	}
	owned := tree.Root.Partition("owned", ownedPieces)
	pn := tree.Root.Partition("PN", nodePieces)
	pw := tree.Root.Partition("PW", wirePieces)
	gn := tree.Root.Partition("GN", ghostPieces)

	inst := &apps.Instance{
		Name:         "circuit",
		Tree:         tree,
		Owned:        owned,
		UnitsPerNode: modelWiresPerNode,
		UnitName:     "wires",
	}
	inst.EmitInit = func(s *core.Stream) []apps.Launch {
		// Per-piece graph construction: node state, then wire state, as
		// the Legion circuit's init_pieces tasks do.
		launches := make([]apps.Launch, 0, 3*nodes)
		for i := 0; i < nodes; i++ {
			tn := s.Launch(fmt.Sprintf("init_nodes[%d]", i),
				core.Req{Region: pn.Subregions[i], Field: fVolt, Priv: privilege.Writes()},
				core.Req{Region: pn.Subregions[i], Field: fCharge, Priv: privilege.Writes()})
			launches = append(launches, apps.Launch{Task: tn, Node: i, Duration: uvSeconds})
			tw := s.Launch(fmt.Sprintf("init_wires[%d]", i),
				core.Req{Region: pw.Subregions[i], Field: fCur, Priv: privilege.Writes()})
			launches = append(launches, apps.Launch{Task: tw, Node: i, Duration: uvSeconds})
		}
		// Locator construction reads each piece's remote endpoints — the
		// first ghost-region uses, after all pieces are loaded, as in
		// Legion circuit's load phase.
		for i := 0; i < nodes; i++ {
			tl := s.Launch(fmt.Sprintf("init_locator[%d]", i),
				core.Req{Region: pn.Subregions[i], Field: fVolt, Priv: privilege.Reads()},
				core.Req{Region: gn.Subregions[i], Field: fVolt, Priv: privilege.Reads()})
			launches = append(launches, apps.Launch{Task: tl, Node: i, Duration: uvSeconds})
		}
		return launches
	}
	inst.Emit = func(s *core.Stream, iter int) []apps.Launch {
		launches := make([]apps.Launch, 0, 3*nodes)
		for i := 0; i < nodes; i++ {
			cnc := s.Launch(fmt.Sprintf("calc_new_currents[%d]", i),
				core.Req{Region: pn.Subregions[i], Field: fVolt, Priv: privilege.Reads()},
				core.Req{Region: gn.Subregions[i], Field: fVolt, Priv: privilege.Reads()},
				core.Req{Region: pw.Subregions[i], Field: fCur, Priv: privilege.Writes()})
			launches = append(launches, apps.Launch{Task: cnc, Node: i, Duration: cncSeconds})
		}
		for i := 0; i < nodes; i++ {
			dc := s.Launch(fmt.Sprintf("distribute_charge[%d]", i),
				core.Req{Region: pw.Subregions[i], Field: fCur, Priv: privilege.Reads()},
				core.Req{Region: pn.Subregions[i], Field: fCharge, Priv: privilege.Reduces(privilege.OpSum)},
				core.Req{Region: gn.Subregions[i], Field: fCharge, Priv: privilege.Reduces(privilege.OpSum)})
			launches = append(launches, apps.Launch{Task: dc, Node: i, Duration: dcSeconds})
		}
		for i := 0; i < nodes; i++ {
			uv := s.Launch(fmt.Sprintf("update_voltages[%d]", i),
				core.Req{Region: pn.Subregions[i], Field: fVolt, Priv: privilege.Writes()},
				core.Req{Region: pn.Subregions[i], Field: fCharge, Priv: privilege.Writes()})
			launches = append(launches, apps.Launch{Task: uv, Node: i, Duration: uvSeconds})
		}
		return launches
	}
	return inst
}
