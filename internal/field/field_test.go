package field

import "testing"

func TestSpaceAddLookup(t *testing.T) {
	s := NewSpace()
	up := s.Add("up")
	down := s.Add("down")
	if up == down {
		t.Fatal("distinct fields share an ID")
	}
	if got, ok := s.Lookup("up"); !ok || got != up {
		t.Errorf("Lookup(up) = %v, %v", got, ok)
	}
	if _, ok := s.Lookup("sideways"); ok {
		t.Error("Lookup of missing field succeeded")
	}
	if s.Name(down) != "down" {
		t.Errorf("Name(down) = %q", s.Name(down))
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestSpaceDuplicatePanics(t *testing.T) {
	s := NewSpace()
	s.Add("x")
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate field")
		}
	}()
	s.Add("x")
}

func TestSpaceTooManyPanics(t *testing.T) {
	s := NewSpace()
	for i := 0; i < MaxFields; i++ {
		s.Add(string(rune('a'+i%26)) + string(rune('0'+i/26)))
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic past MaxFields")
		}
	}()
	s.Add("overflow")
}
