package raycast

import (
	"fmt"
	"slices"

	"visibility/internal/field"
)

// CheckResolved compares everything the store resolved once — each live
// set's owner, each bucket's owner, each memoized bucket list and its two
// counts — with a fresh resolution from the geometry.
func (rc *RayCast) CheckResolved() error {
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
	owner := rc.k.Opts.Owner
	var live []*set
	for _, b := range fs.buckets {
		live = append(live, b...)
	}
	for _, id := range sortedIntKeys(fs.kdSets) {
		live = append(live, fs.kdSets[id])
	}
	for _, s := range live {
		if got, want := rc.k.Owner(s), owner(s.Pts); got != want {
			return fmt.Errorf("field %d: set %v carries owner %d, its points resolve to %d", f, s.Pts, got, want)
		}
	}
	if fs.dcp == nil {
		if fs.owners != nil || fs.memo != nil {
			return fmt.Errorf("field %d: K-d mode kept the bucket tables of a dropped partition", f)
		}
		return nil
	}
	for i, sub := range fs.dcp.Subregions {
		if got, want := fs.owners[i], owner(sub.Space); got != want {
			return fmt.Errorf("field %d: bucket %d carries owner %d, its piece resolves to %d", f, i, got, want)
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
