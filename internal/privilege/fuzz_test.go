package privilege

import (
	"testing"
)

// decodePrivilege builds a privilege from one fuzz byte, covering every
// kind, every operator, and ill-formed combinations (a reduce op on a
// non-reduce privilege, OpNone on a reduce) the constructors never emit.
func decodePrivilege(b byte) Privilege {
	p := Privilege{Kind: Kind(b % 3), Op: ReduceOp(int(b/3) % 5)}
	return p
}

// FuzzInterferes checks the interference relation against its §4
// specification on arbitrary privilege pairs: the only non-interfering
// combinations are read/read and reduce/reduce with one operator, the
// relation is symmetric, self-interference is exactly write-ness, and a
// single-entry Summary agrees with the pairwise relation.
func FuzzInterferes(f *testing.F) {
	f.Add(byte(0), byte(0))   // read vs read
	f.Add(byte(1), byte(2))   // write vs reduce
	f.Add(byte(5), byte(5))   // reduce(sum) vs reduce(sum)
	f.Add(byte(5), byte(8))   // reduce(sum) vs reduce(prod)
	f.Add(byte(2), byte(14))  // reduce(none) vs reduce(max)
	f.Add(byte(255), byte(0)) // high bytes wrap
	f.Fuzz(func(t *testing.T, pb, qb byte) {
		p, q := decodePrivilege(pb), decodePrivilege(qb)

		want := true
		switch {
		case p.Kind == Read && q.Kind == Read:
			want = false
		case p.Kind == Reduce && q.Kind == Reduce && p.Op == q.Op:
			want = false
		}
		if got := Interferes(p, q); got != want {
			t.Fatalf("Interferes(%v, %v) = %v, want %v", p, q, got, want)
		}
		if Interferes(p, q) != Interferes(q, p) {
			t.Fatalf("Interferes(%v, %v) is not symmetric", p, q)
		}
		// A privilege interferes with itself exactly when it can
		// overwrite: reads observe, reductions of one operator commute.
		if Interferes(p, p) != p.IsWrite() {
			t.Fatalf("Interferes(%v, %v) = %v, want IsWrite = %v", p, p, Interferes(p, p), p.IsWrite())
		}
		// Same privileges never interfere unless they write.
		if p.Same(q) && Interferes(p, q) != p.IsWrite() {
			t.Fatalf("identical privileges %v: Interferes = %v, IsWrite = %v", p, Interferes(p, q), p.IsWrite())
		}
		// A summary holding only p must agree with the pairwise relation.
		var s Summary
		s.Add(p)
		if s.Interferes(q) != Interferes(p, q) {
			t.Fatalf("Summary{%v}.Interferes(%v) = %v, Interferes = %v",
				p, q, s.Interferes(q), Interferes(p, q))
		}
	})
}

// summaryOps are the operators FuzzSummary draws from: OpNone and the four
// declared ones; pairs that a bit index taken modulo 8 or 32 would merge
// (6 and 62, 32 and OpNone); the last exact bit (62); and operators that
// share the last bit (63, 200, negative).
var summaryOps = []ReduceOp{OpNone, OpSum, OpProd, OpMin, OpMax, 5, 6, 31, 32, 62, 63, 200, -1, -64}

// decodeSummaryPrivilege builds a privilege of any kind over summaryOps
// from one fuzz byte.
func decodeSummaryPrivilege(b byte) Privilege {
	return Privilege{Kind: Kind(b % 3), Op: summaryOps[int(b/3)%len(summaryOps)]}
}

// FuzzSummary builds a summary of up to 8 privileges three ways — by Add,
// by AddAll of two halves, and by Add after Reset of an unrelated summary —
// and holds each, for every privilege the decoder can produce, to the
// pairwise relation OR-ed over the recorded privileges. The answer must be
// exact unless the query reduces with an operator outside [0, 63), which
// shares one bit with every such operator; there it must still be sound:
// never "no" where some recorded privilege interferes.
func FuzzSummary(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5})         // reduce(sum): Reset must clear the operators
	f.Add([]byte{1, 5, 8})      // reduce(sum) | reduce(prod)
	f.Add([]byte{1, 0, 5})      // read | reduce(sum)
	f.Add([]byte{1, 20, 29})    // reduce(6) | reduce(62)
	f.Add([]byte{1, 26, 2})     // reduce(32) | reduce(none)
	f.Add([]byte{0, 32, 35})    // reduce(63) and reduce(200) share the bit
	f.Add([]byte{1, 29, 1, 38}) // reduce(62), the last exact bit | write, reduce(-1)
	// Eight privileges, the bytes past them ignored: write, reduce(none),
	// reduce(sum), reduce(prod) | reduce(min), reduce(max), reduce(5),
	// reduce(6).
	f.Add([]byte{4, 1, 2, 5, 8, 11, 14, 17, 20, 23, 26})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ps := make([]Privilege, 0, 8)
		for _, b := range data[1:min(len(data), 9)] {
			ps = append(ps, decodeSummaryPrivilege(b))
		}
		h := int(data[0]) % (len(ps) + 1) // the first byte splits the halves

		var added, halves, reset, lo, hi Summary
		for i, p := range ps {
			added.Add(p)
			if i < h {
				lo.Add(p)
			} else {
				hi.Add(p)
			}
		}
		halves.AddAll(lo)
		halves.AddAll(hi)
		reset.Add(Writes())
		reset.Add(Reduces(OpMin))
		reset.Add(Reduces(200))
		reset.Reset()
		for _, p := range ps {
			reset.Add(p)
		}

		for _, c := range []struct {
			name string
			s    Summary
		}{{"Add", added}, {"AddAll", halves}, {"Reset", reset}} {
			name, s := c.name, c.s
			if s.IsEmpty() != (len(ps) == 0) {
				t.Fatalf("%s summary of %v: IsEmpty = %v", name, ps, s.IsEmpty())
			}
			for b := 0; b < 3*len(summaryOps); b++ {
				q := decodeSummaryPrivilege(byte(b))
				want := false
				for _, p := range ps {
					want = want || Interferes(p, q)
				}
				got := s.Interferes(q)
				if want && !got {
					t.Fatalf("%s summary of %v: Interferes(%v) = false, but a recorded privilege interferes", name, ps, q)
				}
				if got != want && (q.Kind != Reduce || opBit(q.Op) != sharedBit) {
					t.Fatalf("%s summary of %v: Interferes(%v) = %v, pairwise %v", name, ps, q, got, want)
				}
			}
		}
	})
}
