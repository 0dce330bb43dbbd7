package warnock

import (
	"fmt"

	"visibility/internal/eqset"
	"visibility/internal/field"
	"visibility/internal/index"
	"visibility/internal/testutil"
)

// geometry returns every geometry node field f's refinement tree wears,
// and every node their remembered cuts reach.
func (w *Warnock) geometry(fs *fieldState) []*eqset.Node {
	var worn []*eqset.Node
	var walk func(*bnode)
	walk = func(b *bnode) {
		worn = append(worn, b.g)
		for _, c := range b.children {
			walk(c)
		}
	}
	walk(fs.root)
	return testutil.Geometry(worn)
}

// CheckResolved compares the owner and remembered cuts of every geometry
// node the refinement tree wears or reaches with a fresh resolution from
// the node's points, and checks that each leaf's set wears its node's
// geometry and holds a history of footprints the eqset kernel allows
// (testutil.CheckFootprints), and that each region's memoized sets lie
// inside the region — what lets a memoized lookup descend without testing.
func (w *Warnock) CheckResolved() error {
	for f := 0; f < w.tree.Fields.Len(); f++ {
		fs, ok := w.state[field.ID(f)]
		if !ok {
			continue
		}
		var walk func(*bnode) error
		walk = func(b *bnode) error {
			if b.set != nil {
				if b.set.G != b.g {
					return fmt.Errorf("field %d: leaf %v holds set %v", f, b.g.Pts, b.set.G.Pts)
				}
				if err := testutil.CheckFootprints(b.g, b.set.Hist, w.tree); err != nil {
					return fmt.Errorf("field %d: %v", f, err)
				}
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
		for id, parts := range fs.memo {
			sp := w.tree.Region(id).Space
			for _, p := range parts {
				if s := p.S; s.At.g != s.G || !sp.Covers(s.G.Pts) {
					return fmt.Errorf("field %d: region %d memoizes set %v, outside %v or off its node", f, id, s.G.Pts, sp)
				}
			}
		}
		if err := testutil.CheckGeometry(w.geometry(fs), w.tree, w.k.Owner, w.k.Opts.Owner); err != nil {
			return fmt.Errorf("field %d: %v", f, err)
		}
	}
	return nil
}

// Sweeps runs f and returns the index-space sweeps it made through
// lookups' overlap tests and through Node.Cut misses, each of which
// leaves a remembered cut behind.
func (w *Warnock) Sweeps(f func()) (tests, misses int) {
	cuts := func() int {
		n := 0
		for _, fs := range w.state {
			n += testutil.CountCuts(w.geometry(fs))
		}
		return n
	}
	before := cuts()
	defer func(orig func(index.Space, index.Space) bool) { overlaps = orig }(overlaps)
	overlaps = func(a, b index.Space) bool {
		tests++
		return a.Overlaps(b)
	}
	f()
	return tests, cuts() - before
}
