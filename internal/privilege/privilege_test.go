package privilege

import (
	"math"
	"testing"
)

func TestInterferes(t *testing.T) {
	cases := []struct {
		p, q Privilege
		want bool
	}{
		{Reads(), Reads(), false},
		{Reads(), Writes(), true},
		{Writes(), Reads(), true},
		{Writes(), Writes(), true},
		{Reduces(OpSum), Reduces(OpSum), false},
		{Reduces(OpSum), Reduces(OpMin), true},
		{Reduces(OpSum), Reads(), true},
		{Reads(), Reduces(OpSum), true},
		{Writes(), Reduces(OpSum), true},
		{Reduces(OpMax), Writes(), true},
	}
	for _, c := range cases {
		if got := Interferes(c.p, c.q); got != c.want {
			t.Errorf("Interferes(%v, %v) = %v, want %v", c.p, c.q, got, c.want)
		}
		// Interference is symmetric.
		if got := Interferes(c.q, c.p); got != c.want {
			t.Errorf("Interferes(%v, %v) = %v, want %v (symmetry)", c.q, c.p, got, c.want)
		}
	}
}

func TestInterferesEdgeCases(t *testing.T) {
	ops := []ReduceOp{OpSum, OpProd, OpMin, OpMax}

	// Reductions interfere exactly when their operators differ: sum and
	// min do not commute with each other, but each commutes with itself.
	for _, f := range ops {
		for _, g := range ops {
			want := f != g
			if got := Interferes(Reduces(f), Reduces(g)); got != want {
				t.Errorf("Interferes(reduce%v, reduce%v) = %v, want %v", f, g, got, want)
			}
		}
	}

	// A reduction interferes with both reads (the read must see the folded
	// value) and writes (the write occludes the accumulation), regardless
	// of operator.
	for _, f := range ops {
		if !Interferes(Reduces(f), Reads()) || !Interferes(Reads(), Reduces(f)) {
			t.Errorf("reduce%v vs read should interfere", f)
		}
		if !Interferes(Reduces(f), Writes()) || !Interferes(Writes(), Reduces(f)) {
			t.Errorf("reduce%v vs write should interfere", f)
		}
	}

	// The zero Privilege value is a read (Kind zero value is Read): it
	// must behave exactly like Reads() under interference.
	var zero Privilege
	if !zero.IsRead() {
		t.Fatalf("zero Privilege should be a read, got %v", zero)
	}
	if Interferes(zero, Reads()) || Interferes(zero, zero) {
		t.Error("zero privilege should not interfere with reads")
	}
	if !Interferes(zero, Writes()) || !Interferes(zero, Reduces(OpSum)) {
		t.Error("zero privilege should interfere with mutators")
	}
}

func TestSame(t *testing.T) {
	cases := []struct {
		p, q Privilege
		want bool
	}{
		{Reads(), Reads(), true},
		{Writes(), Writes(), true},
		{Reduces(OpSum), Reduces(OpSum), true},
		{Reduces(OpSum), Reduces(OpMin), false},
		{Reads(), Writes(), false},
		{Writes(), Reduces(OpSum), false},
		{Reads(), Privilege{}, true}, // zero value is the read privilege
	}
	for _, c := range cases {
		if got := c.p.Same(c.q); got != c.want {
			t.Errorf("(%v).Same(%v) = %v, want %v", c.p, c.q, got, c.want)
		}
		if got := c.q.Same(c.p); got != c.want {
			t.Errorf("(%v).Same(%v) = %v, want %v (symmetry)", c.q, c.p, got, c.want)
		}
	}
}

func TestPredicates(t *testing.T) {
	if !Writes().IsWrite() || !Writes().Mutates() || Writes().IsRead() || Writes().IsReduce() {
		t.Error("Writes predicates wrong")
	}
	if !Reads().IsRead() || Reads().Mutates() {
		t.Error("Reads predicates wrong")
	}
	if !Reduces(OpSum).IsReduce() || !Reduces(OpSum).Mutates() {
		t.Error("Reduces predicates wrong")
	}
}

func TestIdentityAndApply(t *testing.T) {
	ops := []ReduceOp{OpSum, OpProd, OpMin, OpMax}
	for _, op := range ops {
		id := Identity(op)
		for _, x := range []float64{-3, 0, 2.5, 100} {
			if got := Apply(op, id, x); got != x {
				t.Errorf("Apply(%v, identity, %v) = %v, want %v", op, x, got, x)
			}
		}
	}
	if Apply(OpSum, 2, 3) != 5 {
		t.Error("sum wrong")
	}
	if Apply(OpProd, 2, 3) != 6 {
		t.Error("prod wrong")
	}
	if Apply(OpMin, 2, 3) != 2 || Apply(OpMin, 3, 2) != 2 {
		t.Error("min wrong")
	}
	if Apply(OpMax, 2, 3) != 3 || Apply(OpMax, 3, 2) != 3 {
		t.Error("max wrong")
	}
	if !math.IsInf(Identity(OpMin), 1) || !math.IsInf(Identity(OpMax), -1) {
		t.Error("min/max identities should be infinities")
	}
}

func TestIdentityPanicsOnNone(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Identity(OpNone)
}

func TestSummary(t *testing.T) {
	var s Summary
	if !s.IsEmpty() {
		t.Error("zero summary should be empty")
	}
	if s.Interferes(Writes()) {
		t.Error("empty summary interferes with nothing")
	}

	s.Add(Reads())
	if s.Interferes(Reads()) {
		t.Error("read summary should not interfere with read")
	}
	if !s.Interferes(Writes()) || !s.Interferes(Reduces(OpSum)) {
		t.Error("read summary should interfere with mutators")
	}

	s.Reset()
	s.Add(Reduces(OpSum))
	if s.Interferes(Reduces(OpSum)) {
		t.Error("same-op reductions do not interfere")
	}
	if !s.Interferes(Reduces(OpMin)) || !s.Interferes(Reads()) {
		t.Error("reduce summary should interfere with other ops and reads")
	}

	s.Add(Writes())
	if !s.Interferes(Reads()) || !s.Interferes(Reduces(OpSum)) {
		t.Error("write summary interferes with everything")
	}
	if s.IsEmpty() {
		t.Error("summary with entries is not empty")
	}
}

func TestStrings(t *testing.T) {
	if Reduces(OpSum).String() != "reduce+" {
		t.Errorf("String = %q", Reduces(OpSum).String())
	}
	if Writes().String() != "read-write" || Reads().String() != "read" {
		t.Error("kind strings wrong")
	}
	if OpMin.String() != "min" || OpMax.String() != "max" || OpProd.String() != "*" || OpNone.String() != "none" {
		t.Error("op strings wrong")
	}
}
