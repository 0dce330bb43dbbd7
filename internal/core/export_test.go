package core

import (
	"visibility/internal/data"
	"visibility/internal/field"
)

// Tables returns how many tasks are in flight, the length of the window
// of task IDs that holds them, and the size of the ready queue.
func (x *Executor) Tables() (live, window, ready int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, n := range x.live {
		if n != nil {
			live++
		}
	}
	return live, len(x.live), len(x.ready)
}

// Pending returns how many live predecessors in-flight task id waits on.
func (x *Executor) Pending(id int) int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.liveLocked(id).pending
}

// Source returns the store plan entry v reads, as a runner materializing
// field f would.
func (x *Executor) Source(v Visible, f field.ID) *data.Store { return x.source(v, f) }
