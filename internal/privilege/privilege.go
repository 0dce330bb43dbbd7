// Package privilege defines task privileges on region arguments and the
// interference relation between them (paper §4).
//
// A privilege is read, read-write, or reduce(f) for a reduction operator f.
// Two privileges interfere when two tasks holding them on overlapping data
// could produce different results if reordered; the only non-interfering
// combinations are read/read and reduce(f)/reduce(f) with the same f.
package privilege

import (
	"fmt"
	"math"
)

// Kind classifies a privilege.
type Kind int

const (
	// Read grants read-only access: fully transparent in the visibility
	// reduction (§3.1).
	Read Kind = iota
	// ReadWrite grants mutation: fully opaque, occluding all earlier
	// updates to the same points.
	ReadWrite
	// Reduce grants application of one reduction operator: partially
	// transparent, blending with earlier updates.
	Reduce
)

func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case ReadWrite:
		return "read-write"
	case Reduce:
		return "reduce"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ReduceOp identifies a reduction operator. All operators used here have an
// identity element so reductions can be accumulated lazily into scratch
// buffers and folded when the value is finally read (§5).
type ReduceOp int

const (
	OpNone ReduceOp = iota // not a reduction
	OpSum                  // +=, identity 0
	OpProd                 // *=, identity 1
	OpMin                  // min=, identity +inf
	OpMax                  // max=, identity -inf
)

func (op ReduceOp) String() string {
	switch op {
	case OpNone:
		return "none"
	case OpSum:
		return "+"
	case OpProd:
		return "*"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	default:
		return fmt.Sprintf("ReduceOp(%d)", int(op))
	}
}

// Privilege is a task's declared access to one region argument.
type Privilege struct {
	Kind Kind
	Op   ReduceOp // valid only when Kind == Reduce
}

// Reads returns the read privilege.
func Reads() Privilege { return Privilege{Kind: Read} }

// Writes returns the read-write privilege.
func Writes() Privilege { return Privilege{Kind: ReadWrite} }

// Reduces returns the reduce privilege for op.
func Reduces(op ReduceOp) Privilege { return Privilege{Kind: Reduce, Op: op} }

// IsWrite reports whether the privilege can overwrite data (fully opaque).
func (p Privilege) IsWrite() bool { return p.Kind == ReadWrite }

// IsRead reports whether the privilege only observes data.
func (p Privilege) IsRead() bool { return p.Kind == Read }

// IsReduce reports whether the privilege applies a reduction.
func (p Privilege) IsReduce() bool { return p.Kind == Reduce }

// Mutates reports whether the privilege changes data at all (write or
// reduce); such privileges contribute entries that later materializations
// must observe.
func (p Privilege) Mutates() bool { return p.Kind != Read }

// Same reports whether p and q are the identical privilege (same kind and,
// for reductions, the same operator). Code outside this package must use
// Same rather than comparing Privilege values with ==, so that any future
// field added here (e.g. a write-discard refinement) cannot silently fall
// out of the comparison.
func (p Privilege) Same(q Privilege) bool { return p == q }

func (p Privilege) String() string {
	if p.Kind == Reduce {
		return "reduce" + p.Op.String()
	}
	return p.Kind.String()
}

// Interferes reports whether tasks holding p and q on overlapping data have
// a dependence (§4): every combination interferes except read/read and
// reductions with the same operator.
func Interferes(p, q Privilege) bool {
	if p.Kind == Read && q.Kind == Read {
		return false
	}
	if p.Kind == Reduce && q.Kind == Reduce && p.Op == q.Op {
		return false
	}
	return true
}

// Summary is a conservative set of privilege shapes present in a region
// subtree, used by the painter's algorithm (§5.1) to skip composite-view
// creation for subtrees whose recorded privileges cannot interfere with a
// new task's privilege. The zero value is the empty summary.
type Summary struct {
	hasRead   bool
	hasWrite  bool
	reduceOps uint64 // bit opBit(op) for every recorded reduction op
}

// sharedBit is the bit of every operator outside [0, 63): those cannot be
// told apart, so a reduction recorded under it interferes with every
// reduction. That only costs a hoist the summary could have skipped.
const sharedBit = uint64(1) << 63

// opBit returns the bit of op in Summary.reduceOps.
func opBit(op ReduceOp) uint64 {
	if op < 0 || op >= 63 {
		return sharedBit
	}
	return 1 << op
}

// Add records p in the summary.
func (s *Summary) Add(p Privilege) {
	switch p.Kind {
	case Read:
		s.hasRead = true
	case ReadWrite:
		s.hasWrite = true
	case Reduce:
		s.reduceOps |= opBit(p.Op)
	}
}

// IsEmpty reports whether no privileges have been recorded.
func (s *Summary) IsEmpty() bool { return *s == Summary{} }

// Reset clears the summary.
func (s *Summary) Reset() { *s = Summary{} }

// AddAll records every privilege of o into s.
func (s *Summary) AddAll(o Summary) {
	s.hasRead = s.hasRead || o.hasRead
	s.hasWrite = s.hasWrite || o.hasWrite
	s.reduceOps |= o.reduceOps
}

// Interferes reports whether any recorded privilege interferes with p: a
// write always does, a read unless p reads, and a reduction unless p
// reduces with the same operator and that operator has a bit of its own.
func (s *Summary) Interferes(p Privilege) bool {
	switch {
	case s.hasWrite, s.hasRead && p.Kind != Read:
		return true
	case p.Kind == Reduce:
		return s.reduceOps&^(opBit(p.Op)&^sharedBit) != 0
	}
	return s.reduceOps != 0
}

// Identity returns the identity element of op.
func Identity(op ReduceOp) float64 {
	switch op {
	case OpSum:
		return 0
	case OpProd:
		return 1
	case OpMin:
		return inf
	case OpMax:
		return -inf
	default:
		panic("privilege: no identity for " + op.String())
	}
}

// Apply folds x into acc using op.
func Apply(op ReduceOp, acc, x float64) float64 {
	switch op {
	case OpSum:
		return acc + x
	case OpProd:
		return acc * x
	case OpMin:
		if x < acc {
			return x
		}
		return acc
	case OpMax:
		if x > acc {
			return x
		}
		return acc
	default:
		panic("privilege: cannot apply " + op.String())
	}
}

var inf = math.Inf(1)
