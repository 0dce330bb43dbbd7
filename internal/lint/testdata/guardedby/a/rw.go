// RWMutex cases: only Lock holds a guard. A read lock does not, so an
// access under RLock alone, read or write, is reported as unguarded.
package a

import "sync"

type gauge struct {
	mu sync.RWMutex

	// guarded by mu
	val int
}

func (g *gauge) write(v int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.val = v
}

func (g *gauge) readUnderRead() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.val // want `access to gauge\.val \(guarded by mu\) without holding g\.mu`
}

func (g *gauge) writeUnderRead(v int) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.val = v // want `access to gauge\.val \(guarded by mu\) without holding g\.mu`
}

// upgrade drops the read lock before taking the write lock: only the
// access under the write lock is guarded.
func (g *gauge) upgrade(v int) {
	g.mu.RLock()
	n := g.val // want `access to gauge\.val \(guarded by mu\) without holding g\.mu`
	g.mu.RUnlock()
	g.mu.Lock()
	g.val = n + v
	g.mu.Unlock()
}
