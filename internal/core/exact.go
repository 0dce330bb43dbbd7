package core

import (
	"fmt"

	"visibility/internal/privilege"
)

// ReqsInterfere reports whether two requirements interfere: same field,
// interfering privileges, and overlapping points (the content-based
// dependence test of §3.2).
func ReqsInterfere(a, b Req) bool {
	if a.Field != b.Field {
		return false
	}
	if !privilege.Interferes(a.Priv, b.Priv) {
		return false
	}
	return a.Region.Space.Overlaps(b.Region.Space)
}

// ExactDeps computes, for every task in the stream, the complete set of
// earlier tasks it interferes with — the quadratic reference analysis that
// the visibility algorithms must preserve (directly or transitively).
// Task IDs must equal stream positions.
func ExactDeps(tasks []*Task) [][]int {
	out := make([][]int, len(tasks))
	for i, t := range tasks {
		if t.ID != i {
			panic(fmt.Sprintf("core: task %v at position %d", t, i))
		}
	earlier:
		for j, s := range tasks[:i] {
			for _, a := range s.Reqs {
				for _, b := range t.Reqs {
					if ReqsInterfere(a, b) {
						out[i] = append(out[i], j)
						continue earlier
					}
				}
			}
		}
		// Future consumption is an exact ordering edge too.
		for _, fd := range t.FutureDeps {
			if fd < 0 || fd >= i {
				panic(fmt.Sprintf("core: future dependence %d -> %d is not backward", fd, i))
			}
			out[i] = append(out[i], fd)
		}
		out[i] = DedupDeps(out[i])
	}
	return out
}

// Closure computes the transitive closure of a dependence DAG given as
// per-task predecessor lists (deps[i] ⊆ {0..i-1}). The result supports
// Reaches queries.
type Closure struct {
	n     int
	words int
	bits  []uint64 // n rows × words
}

// NewClosure builds the closure of deps.
func NewClosure(deps [][]int) *Closure {
	n := len(deps)
	words := (n + 63) / 64
	c := &Closure{n: n, words: words, bits: make([]uint64, n*words)}
	for i := 0; i < n; i++ {
		row := c.bits[i*words : (i+1)*words]
		for _, d := range deps[i] {
			if d < 0 || d >= i {
				panic(fmt.Sprintf("core: dependence %d -> %d is not backward", d, i))
			}
			row[d/64] |= 1 << uint(d%64)
			prev := c.bits[d*words : (d+1)*words]
			for w := range row {
				row[w] |= prev[w]
			}
		}
	}
	return c
}

// Reaches reports whether task from transitively precedes task to.
func (c *Closure) Reaches(from, to int) bool {
	if to < 0 || to >= c.n || from < 0 || from >= c.n {
		return false
	}
	return c.bits[to*c.words+from/64]&(1<<uint(from%64)) != 0
}

// CheckSound verifies that the dependences reported by an analyzer preserve
// every exact dependence at least transitively: for every exact pair
// (j before i), j must reach i in the closure of got. Returns a descriptive
// error for the first violation.
func CheckSound(got, exact [][]int) error {
	if len(got) != len(exact) {
		return fmt.Errorf("core: %d analyzed tasks vs %d exact", len(got), len(exact))
	}
	c := NewClosure(got)
	for i, deps := range exact {
		for _, j := range deps {
			if !c.Reaches(j, i) {
				return fmt.Errorf("core: missing ordering %d -> %d (exact dependence not preserved)", j, i)
			}
		}
	}
	return nil
}

// CheckPrecise counts reported dependence edges that are not exact
// interferences. Conservative analyzers are allowed to report such edges,
// so the count is advisory; tests use it to bound imprecision.
func CheckPrecise(got, exact [][]int) int {
	spurious := 0
	for i := range got {
		ex := make(map[int]bool, len(exact[i]))
		for _, j := range exact[i] {
			ex[j] = true
		}
		for _, j := range got[i] {
			if !ex[j] {
				spurious++
			}
		}
	}
	return spurious
}
