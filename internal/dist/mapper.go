package dist

import "visibility/internal/core"

// OwnerMapper places tasks by the owner-computes hint: a task runs on the
// node owning its primary piece, modulo the machine size. This is the
// mapping the paper's experiments use.
type OwnerMapper struct{}

// Place returns the node that executes t.
func (OwnerMapper) Place(_ *core.Task, ownerHint, nodes int) int { return ownerHint % nodes }
