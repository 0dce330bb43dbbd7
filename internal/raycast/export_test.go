package raycast

import (
	"fmt"
	"slices"

	"visibility/internal/eqset"
	"visibility/internal/field"
	"visibility/internal/testutil"
)

// Geometry returns every geometry node the store can still reach: those
// rooted at each field's pieces and, if worn, those its live sets wear.
func (rc *RayCast) Geometry(worn bool) []*eqset.Node {
	var roots []*eqset.Node
	for f := 0; f < rc.tree.Fields.Len(); f++ {
		if fs, ok := rc.state[field.ID(f)]; ok {
			roots = append(roots, fs.geom...)
			if worn {
				for _, s := range fs.live() {
					roots = append(roots, s.G)
				}
			}
		}
	}
	return testutil.Geometry(roots)
}

// CheckResolved compares everything the store resolved once — every
// reachable geometry node's owner and remembered cuts, the nodes rooted at
// the pieces, each memoized bucket list and its two counts — with a fresh
// resolution from the geometry, and every live set's history to the
// footprints the eqset kernel allows (testutil.CheckFootprints).
func (rc *RayCast) CheckResolved() error {
	if err := testutil.CheckGeometry(rc.Geometry(true), rc.tree, rc.k.Owner, rc.k.Opts.Owner); err != nil {
		return err
	}
	for f := 0; f < rc.tree.Fields.Len(); f++ {
		if fs, ok := rc.state[field.ID(f)]; ok {
			if err := rc.checkField(field.ID(f), fs); err != nil {
				return err
			}
		}
	}
	return nil
}

func (rc *RayCast) checkField(f field.ID, fs *fieldState) error {
	for _, s := range fs.live() {
		if err := testutil.CheckFootprints(s.G, s.Hist, rc.tree); err != nil {
			return fmt.Errorf("field %d: %v", f, err)
		}
	}
	if fs.dcp == nil {
		if fs.memo != nil || len(fs.geom) != 1 || !fs.geom[0].Pts.Equal(rc.tree.Root.Space) {
			return fmt.Errorf("field %d: K-d mode kept the bucket tables of a dropped partition", f)
		}
		return nil
	}
	if len(fs.geom) != len(fs.dcp.Subregions) {
		return fmt.Errorf("field %d: %d geometry roots for %d pieces", f, len(fs.geom), len(fs.dcp.Subregions))
	}
	for i, sub := range fs.dcp.Subregions {
		// CheckGeometry held every cut of the root to root ∩ region; with
		// the root still this partition's piece, that is the piece ∩ region
		// a write's fresh set must wear.
		if !fs.geom[i].Pts.Equal(sub.Space) {
			return fmt.Errorf("field %d: bucket %d roots %v, its piece is %v", f, i, fs.geom[i].Pts, sub.Space)
		}
		for _, s := range fs.buckets[i] {
			if s.Dead || !sub.Space.Covers(s.G.Pts) {
				return fmt.Errorf("field %d: bucket %d holds set %v (dead %v), its piece is %v", f, i, s.G.Pts, s.Dead, sub.Space)
			}
		}
	}
	for _, id := range sortedIntKeys(fs.memo) {
		got, want := fs.memo[id], fs.query(rc.tree.Region(id).Space)
		if !slices.Equal(got.buckets, want.buckets) || got.tests != want.tests || got.visited != want.visited {
			return fmt.Errorf("field %d: region %d memoized %+v, a fresh query gives %+v", f, id, got, want)
		}
	}
	return nil
}

// ForceMigrate rebuilds field f's acceleration structure as the
// eq.migrate fault would with that payload.
func (rc *RayCast) ForceMigrate(f field.ID, payload uint64) {
	if fs, ok := rc.state[f]; ok {
		rc.forceMigrate(fs, payload)
	}
}
