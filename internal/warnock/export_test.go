package warnock

import (
	"fmt"

	"visibility/internal/field"
)

// CheckResolved compares the owner stored at every node of the refinement
// tree, and by the set at every leaf, with a fresh resolution from the
// node's points.
func (w *Warnock) CheckResolved() error {
	for f := 0; f < w.tree.Fields.Len(); f++ {
		fs, ok := w.state[field.ID(f)]
		if !ok {
			continue
		}
		var walk func(*bnode) error
		walk = func(b *bnode) error {
			want := w.k.Opts.Owner(b.pts)
			if b.owner != want {
				return fmt.Errorf("field %d: node %v carries owner %d, its points resolve to %d", f, b.pts, b.owner, want)
			}
			if b.set != nil && w.k.Owner(b.set) != want {
				return fmt.Errorf("field %d: set %v carries owner %d, its points resolve to %d", f, b.pts, w.k.Owner(b.set), want)
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
	}
	return nil
}
