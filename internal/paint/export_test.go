package paint

import (
	"fmt"

	"visibility/internal/field"
	"visibility/internal/index"
)

// CheckResolved compares the owner stored at every node state, and the home
// of every composite view appended to it, with a fresh resolution from the
// region-tree node's space.
func (pa *Painter) CheckResolved() error {
	check := func(f int, fs *fieldState, k nodeKey, space index.Space) error {
		ns := fs.at(k)
		if ns == nil {
			return nil
		}
		want := pa.opts.Owner(space)
		if ns.owner != want {
			return fmt.Errorf("field %d: node %+v carries owner %d, its space resolves to %d", f, k, ns.owner, want)
		}
		for _, it := range ns.hist {
			if it.view != nil && it.view.home != want {
				return fmt.Errorf("field %d: view %d at node %+v has home %d, the node resolves to %d", f, it.view.id, k, it.view.home, want)
			}
		}
		return nil
	}
	for f := 0; f < pa.tree.Fields.Len(); f++ {
		fs, ok := pa.state[field.ID(f)]
		if !ok {
			continue
		}
		for i := 0; i < pa.tree.NumRegions(); i++ {
			if err := check(f, fs, nodeKey{id: i}, pa.tree.Region(i).Space); err != nil {
				return err
			}
		}
		for i := 0; i < pa.tree.NumPartitions(); i++ {
			if err := check(f, fs, nodeKey{part: true, id: i}, pa.tree.PartitionAt(i).Space()); err != nil {
				return err
			}
		}
	}
	return nil
}
