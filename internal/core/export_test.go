package core

// Tables returns the sizes of x's in-flight and ready tables.
func (x *Executor) Tables() (live, ready int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.live), len(x.ready)
}

// Pending returns how many live predecessors in-flight task id waits on.
func (x *Executor) Pending(id int) int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.live[id].pending
}
