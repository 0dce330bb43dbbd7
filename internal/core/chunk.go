package core

// ChunkLen is the most slots a Chunk allocates at a time. Its slabs start
// at 16 slots and double up to ChunkLen, so a short stream or session does
// not pay for ChunkLen of each kind up front.
const ChunkLen = 256

// Chunk hands out windows of slabs of Ts: what a steady launch produces —
// a Result and its slices, a Task and its requirements, an equivalence set
// and its history — costs one allocation per ChunkLen slots instead of one
// each. A window is never recycled, since its taker may keep it for good,
// so a slab lives until nothing points into it. The zero value is ready to
// use.
type Chunk[T any] struct {
	rest []T
	slab int // the last slab's length
}

// Take returns a zeroed window of n slots, its capacity clipped to n so
// that an append past it copies instead of running into the next window.
// A window longer than ChunkLen is allocated on its own.
func (c *Chunk[T]) Take(n int) []T {
	if n > len(c.rest) {
		if n > ChunkLen {
			return make([]T, n)
		}
		c.slab = min(max(2*c.slab, 16, n), ChunkLen)
		c.rest = make([]T, c.slab)
	}
	w := c.rest[:n:n]
	c.rest = c.rest[n:]
	return w
}

// New returns a pointer to one zeroed slot.
func (c *Chunk[T]) New() *T { return &c.Take(1)[0] }

// Clone returns a window holding a copy of src, or nil when src is empty.
func (c *Chunk[T]) Clone(src []T) []T {
	if len(src) == 0 {
		return nil
	}
	w := c.Take(len(src))
	copy(w, src)
	return w
}
