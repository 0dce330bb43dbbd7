// Package region implements region trees: hierarchies of logical regions
// and partitions as in Legion (paper §2, Figure 2).
//
// A region names a set of points (its index space) in a field space shared
// by the whole tree. A partition of a region is an array of subregions;
// partitions may be disjoint or aliased, and complete or incomplete, and a
// region may have any number of partitions, which is exactly what
// name-based systems forbid and content-based coherence supports.
package region

import (
	"fmt"

	"visibility/internal/field"
	"visibility/internal/index"
)

// Tree is a region tree: a root region, its partitions, their subregions,
// and so on, all sharing one field space.
type Tree struct {
	Root   *Region
	Fields *field.Space

	regions    []*Region
	partitions []*Partition
}

// Region is a node in the region tree naming a set of points.
type Region struct {
	ID    int
	Name  string
	Space index.Space

	// Parent is the partition this region is a subregion of; nil for the
	// root. Index is this region's position within Parent.
	Parent *Partition
	Index  int

	// Partitions are the partitions of this region, in creation order.
	Partitions []*Partition

	tree *Tree
}

// Partition is an array of subregions of a parent region.
type Partition struct {
	ID         int
	Name       string
	Parent     *Region
	Subregions []*Region

	// Disjoint reports that no two subregions share a point; Complete
	// reports that the subregions cover the parent. Both are computed at
	// creation (content-based systems can decide these properties exactly).
	Disjoint bool
	Complete bool

	space index.Space // union of subregion spaces
}

// Space returns the union of the partition's subregion spaces.
func (p *Partition) Space() index.Space { return p.space }

// NewTree creates a region tree whose root region holds space with the
// given field space.
func NewTree(name string, space index.Space, fields *field.Space) *Tree {
	t := &Tree{Fields: fields}
	t.Root = &Region{ID: 0, Name: name, Space: space, tree: t}
	t.regions = []*Region{t.Root}
	return t
}

// NumRegions returns the number of regions ever created in the tree.
func (t *Tree) NumRegions() int { return len(t.regions) }

// NumPartitions returns the number of partitions ever created in the tree.
func (t *Tree) NumPartitions() int { return len(t.partitions) }

// Region returns the region with the given ID.
func (t *Tree) Region(id int) *Region { return t.regions[id] }

// PartitionAt returns the i-th partition in creation order.
func (t *Tree) PartitionAt(i int) *Partition { return t.partitions[i] }

// Partition creates a partition of r named name with one subregion per
// element of pieces. Pieces must be subsets of r's space; empty pieces are
// allowed (they simply never interfere). Disjointness and completeness are
// computed exactly from the contents.
func (r *Region) Partition(name string, pieces []index.Space) *Partition {
	t := r.tree
	p := &Partition{
		ID:       len(t.partitions),
		Name:     name,
		Parent:   r,
		Disjoint: true,
	}
	covered := index.Empty(r.Space.Dim())
	for i, pc := range pieces {
		if !r.Space.Covers(pc) {
			panic(fmt.Sprintf("region: piece %d of %s is not a subset of %s", i, name, r.Name))
		}
		if p.Disjoint && covered.Overlaps(pc) {
			p.Disjoint = false
		}
		covered = covered.Union(pc)
		sub := &Region{
			ID:     len(t.regions),
			Name:   fmt.Sprintf("%s[%d]", name, i),
			Space:  pc,
			Parent: p,
			Index:  i,
			tree:   t,
		}
		t.regions = append(t.regions, sub)
		p.Subregions = append(p.Subregions, sub)
	}
	p.Complete = covered.Equal(r.Space)
	p.space = covered
	t.partitions = append(t.partitions, p)
	r.Partitions = append(r.Partitions, p)
	return p
}

// Tree returns the tree this region belongs to.
func (r *Region) Tree() *Tree { return r.tree }

// IsRoot reports whether r is the tree's root region.
func (r *Region) IsRoot() bool { return r.Parent == nil }

// ParentRegion returns the region above r (the parent partition's parent),
// or nil for the root.
func (r *Region) ParentRegion() *Region {
	if r.Parent == nil {
		return nil
	}
	return r.Parent.Parent
}

// Path returns the regions from the root down to r, inclusive.
func (r *Region) Path() []*Region {
	var rev []*Region
	for cur := r; cur != nil; cur = cur.ParentRegion() {
		rev = append(rev, cur)
	}
	out := make([]*Region, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

func (r *Region) String() string {
	return fmt.Sprintf("%s%v", r.Name, r.Space.Bounds())
}

// DisjointComplete reports whether the partition is both disjoint and
// complete; such partitions define natural bounding volume hierarchies for
// the ray-casting algorithm (§7.1).
func (p *Partition) DisjointComplete() bool { return p.Disjoint && p.Complete }

func (p *Partition) String() string {
	kind := "aliased"
	if p.Disjoint {
		kind = "disjoint"
	}
	if p.Complete {
		kind += ",complete"
	} else {
		kind += ",incomplete"
	}
	return fmt.Sprintf("%s(%s)×%d", p.Name, kind, len(p.Subregions))
}
