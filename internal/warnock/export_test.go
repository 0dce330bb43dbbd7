package warnock

import (
	"fmt"

	"visibility/internal/eqset"
	"visibility/internal/field"
	"visibility/internal/testutil"
)

// CheckResolved compares the owner stored at every node of the refinement
// tree, and the owner and remembered cuts of every geometry node reachable
// from a leaf's set, with a fresh resolution from the node's points.
func (w *Warnock) CheckResolved() error {
	for f := 0; f < w.tree.Fields.Len(); f++ {
		fs, ok := w.state[field.ID(f)]
		if !ok {
			continue
		}
		var leaves []*eqset.Node
		var walk func(*bnode) error
		walk = func(b *bnode) error {
			want := w.k.Opts.Owner(b.pts)
			if b.owner != want {
				return fmt.Errorf("field %d: node %v carries owner %d, its points resolve to %d", f, b.pts, b.owner, want)
			}
			if b.set != nil {
				if !b.set.G.Pts.Equal(b.pts) {
					return fmt.Errorf("field %d: leaf %v holds set %v", f, b.pts, b.set.G.Pts)
				}
				leaves = append(leaves, b.set.G)
			}
			for _, c := range b.children {
				if err := walk(c); err != nil {
					return err
				}
			}
			return nil
		}
		if err := walk(fs.root); err != nil {
			return err
		}
		if err := testutil.CheckGeometry(testutil.Geometry(leaves), w.tree, w.k.Owner, w.k.Opts.Owner); err != nil {
			return fmt.Errorf("field %d: %v", f, err)
		}
	}
	return nil
}
