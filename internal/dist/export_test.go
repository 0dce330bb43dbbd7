package dist

import (
	"visibility/internal/core"
	"visibility/internal/region"
)

// OwnerWithQueries returns OwnerByPartition(p, nodes) and a count of the
// BVH queries it has made so far: one per distinct low corner asked.
func OwnerWithQueries(p *region.Partition, nodes int) (core.OwnerFunc, func() int) {
	o := newPartitionOwner(p, nodes)
	return o.owner, func() int {
		o.mu.Lock()
		defer o.mu.Unlock()
		return len(o.memo)
	}
}
