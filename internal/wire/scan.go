package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
)

// scanner is the single-pass JSON reader behind Decode and ParseSnapshot:
// a byte slice and an offset, no tokens, no reflection. What it accepts,
// encoding/json accepts into the same Go values (null leaves a value zero,
// [] and {} are empty but not nil), except that object keys must match
// exactly and once. The first error sticks and moves the offset to the end
// of the input, so every loop ends.
type scanner struct {
	b   []byte
	i   int
	err error
}

func (s *scanner) fail(format string, a ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("offset %d: %s", s.i, fmt.Sprintf(format, a...))
	}
	s.i = len(s.b)
}

// end checks that only whitespace follows the value and gives the verdict.
func (s *scanner) end() error {
	if s.peek(); s.i < len(s.b) {
		s.fail("trailing data")
	}
	return s.err
}

// peek skips whitespace and returns the next byte, 0 at the end of input.
func (s *scanner) peek() byte {
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// skip consumes c if it is the very next byte.
func (s *scanner) skip(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// eat consumes c if it is the next byte after whitespace.
func (s *scanner) eat(c byte) bool { return s.peek() == c && s.skip(c) }

func (s *scanner) expect(c byte) {
	if !s.eat(c) {
		s.fail("expected %q", c)
	}
}

func (s *scanner) null() bool {
	if s.peek() != 'n' || !bytes.HasPrefix(s.b[s.i:], []byte("null")) {
		return false
	}
	s.i += 4
	return true
}

// open consumes an opening delimiter; false is a null in its place.
func (s *scanner) open(c byte) bool {
	if s.null() {
		return false
	}
	s.expect(c)
	return true
}

// more steps through an opened array or object: it consumes the comma
// before the next element or the closing delimiter after the last.
func (s *scanner) more(close byte, first bool) bool {
	switch {
	case first:
		return !s.eat(close)
	case s.eat(','):
		return true
	}
	s.expect(close)
	return false
}

// str consumes a string and returns its contents. They alias the input
// unless the string holds an escape, a control or a non-ASCII byte: then
// encoding/json unquotes (or refuses) it.
func (s *scanner) str() []byte {
	s.expect('"')
	start, plain := s.i, true
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			if plain {
				return s.b[start : s.i-1]
			}
			var out string
			if err := json.Unmarshal(s.b[start-1:s.i], &out); err != nil {
				s.fail("%v", err)
			}
			return []byte(out)
		case c == '\\':
			plain = false
			s.i++ // whatever is escaped does not close the string
		case c < ' ' || c >= 0x80:
			plain = false
		}
	}
	s.fail("unterminated string")
	return nil
}

func (s *scanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && s.b[s.i]-'0' < 10 {
		s.i++
	}
	return s.i > start
}

// num consumes a number by the JSON grammar and returns its text.
func (s *scanner) num() []byte {
	s.peek()
	start := s.i
	s.skip('-')
	ok := s.skip('0') || s.digits()
	if s.skip('.') {
		ok = s.digits() && ok
	}
	if s.skip('e') || s.skip('E') {
		_ = s.skip('+') || s.skip('-')
		ok = s.digits() && ok
	}
	if !ok {
		s.fail("invalid number")
		return nil
	}
	return s.b[start:s.i]
}

// The readers fill the value they are given, or leave it zero for a null.

func (s *scanner) string(dst *string) {
	if !s.null() {
		*dst = string(s.str())
	}
}

func (s *scanner) float(dst *float64) {
	if s.null() {
		return
	}
	v, err := strconv.ParseFloat(string(s.num()), 64)
	if err != nil {
		s.fail("number outside float64")
	}
	*dst = v
}

func (s *scanner) integer(bits int) int64 {
	if s.null() {
		return 0
	}
	v, err := strconv.ParseInt(string(s.num()), 10, bits)
	if err != nil {
		s.fail("number is not an int%d", bits)
	}
	return v
}

func (s *scanner) int64(dst *int64) { *dst = s.integer(64) }
func (s *scanner) int(dst *int)     { *dst = int(s.integer(strconv.IntSize)) }

// array reads a JSON array, elem reading each element where it will stay.
func array[T any](s *scanner, dst *[]T, elem func(*scanner, *T)) {
	if !s.open('[') {
		return
	}
	out := []T{}
	for s.more(']', len(out) == 0) {
		out = append(out, *new(T))
		elem(s, &out[len(out)-1])
	}
	*dst = out
}

// dict reads a JSON object with free keys, each at most once, into a map.
func dict[V any](s *scanner, dst *map[string]V, value func(*scanner, *V)) {
	if !s.open('{') {
		return
	}
	m := map[string]V{}
	for s.more('}', len(m) == 0) {
		k := s.str()
		if _, dup := m[string(k)]; dup {
			s.fail("duplicate key %q", k)
		}
		s.expect(':')
		var v V
		value(s, &v)
		m[string(k)] = v
	}
	*dst = m
}

// fields lists the keys of a JSON object and how to read each into a T.
type fields[T any] []struct {
	key  string
	read func(*scanner, *T)
}

// read reads an object with keys out of f, each spelled exactly and once.
func (f fields[T]) read(s *scanner, dst *T) {
	if !s.open('{') {
		return
	}
	seen := 0 // bit i: f[i] was read
	for n := 0; s.more('}', n == 0); n++ {
		k := s.str()
		s.expect(':')
		i := 0
		for i < len(f) && f[i].key != string(k) {
			i++
		}
		switch {
		case i == len(f):
			s.fail("unknown field %q", k)
		case seen>>i&1 != 0:
			s.fail("duplicate key %q", k)
		default:
			seen |= 1 << i
			f[i].read(s, dst)
		}
	}
}
