package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
)

// scanner is the single-pass JSON reader behind Decode, ParseSnapshot and
// ParseExplain: a byte slice and an offset, no tokens, no reflection. What
// it accepts, encoding/json accepts into the same Go values (null leaves a
// value zero, [] and {} are empty but not nil), except that object keys
// must match exactly and once. The first error sticks and moves the offset
// to the end of the input, so every loop ends. A workload repeats the same
// few names and specs on every task, so Decode's scanner keeps one copy of
// each string it reads (names, when non-nil) and the specs it has read. A
// scanner may instead hold the whole input as one string, text, when what
// it reads may keep all of it: then a string without escapes is a window
// of text and costs no allocation.
type scanner struct {
	b     []byte
	i     int
	err   error
	names map[string]string
	specs []specText
	text  string
}

// specText is a spec and its exact text, read or written. The scanner and
// the encoder each remember at most maxSpecs, so a run of distinct specs
// costs a bounded search apiece.
type specText struct {
	spec *FuncSpec
	text []byte
}

const maxSpecs = 16

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

// num consumes a number by the JSON grammar and returns its text and
// whether it is a plain integer: no fraction, no exponent.
func (s *scanner) num() ([]byte, bool) {
	s.peek()
	start := s.i
	s.skip('-')
	ok, integer := s.skip('0') || s.digits(), true
	if s.skip('.') {
		ok, integer = s.digits() && ok, false
	}
	if s.skip('e') || s.skip('E') {
		_ = s.skip('+') || s.skip('-')
		ok, integer = s.digits() && ok, false
	}
	if !ok {
		s.fail("invalid number")
		return nil, false
	}
	return s.b[start:s.i], integer
}

// The readers fill the value they are given, or leave it zero for a null.

func (s *scanner) string(dst *string) {
	if s.null() {
		return
	}
	b := s.str()
	if at := s.i - 1 - len(b); s.text != "" && len(b) > 0 && &b[0] == &s.b[at] {
		*dst = s.text[at : s.i-1]
		return
	}
	v, ok := s.names[string(b)]
	if !ok {
		v = string(b)
		if s.names != nil {
			s.names[v] = v
		}
	}
	*dst = v
}

func (s *scanner) float(dst *float64) {
	if s.null() {
		return
	}
	num, integer := s.num()
	digits, v, err := bytes.TrimLeft(num, "-"), 0.0, error(nil)
	if integer && len(digits) <= 15 {
		// Every partial sum is an integer below 1e15, exact in a float64,
		// so v gets ParseFloat's bits without it, -0 included.
		for _, c := range digits {
			v = v*10 + float64(c-'0')
		}
		if len(digits) < len(num) {
			v = -v
		}
	} else if v, err = strconv.ParseFloat(string(num), 64); err != nil {
		s.fail("number outside float64")
	}
	*dst = v
}

func (s *scanner) integer(bits int) int64 {
	if s.null() {
		return 0
	}
	num, _ := s.num()
	v, err := strconv.ParseInt(string(num), 10, bits)
	if err != nil {
		s.fail("number is not an int%d", bits)
	}
	return v
}

func (s *scanner) bool(dst *bool) {
	switch s.peek(); {
	case bytes.HasPrefix(s.b[s.i:], []byte("true")):
		*dst, s.i = true, s.i+4
	case bytes.HasPrefix(s.b[s.i:], []byte("false")):
		s.i += 5
	case !s.null():
		s.fail("expected a boolean")
	}
}

func (s *scanner) int64(dst *int64) { *dst = s.integer(64) }
func (s *scanner) int(dst *int)     { *dst = int(s.integer(strconv.IntSize)) }

// array reads a JSON array, elem reading each element where it will stay.
// It starts with room for two, a task's write and reduce or a 1-D row.
func array[T any](s *scanner, dst *[]T, elem func(*scanner, *T)) {
	if !s.open('[') {
		return
	}
	out := make([]T, 0, 2)
	for s.more(']', len(out) == 0) {
		out = append(out, *new(T))
		elem(s, &out[len(out)-1])
	}
	*dst = out
}

// slab reads an array of number arrays into one []float64 whose capped
// windows are the rows; a row of k numbers is one '[' and k-1 commas, so
// counting both in the rest of the input sizes both slices up front.
func (s *scanner) slab(dst *[][]float64) {
	if !s.open('[') {
		return
	}
	rest := s.b[s.i:]
	rows := make([][]float64, 0, bytes.Count(rest, []byte("[")))
	flat := make([]float64, 0, cap(rows)+bytes.Count(rest, []byte(",")))
	for s.more(']', len(rows) == 0) {
		start := len(flat)
		for row, first := s.open('['), true; row && s.more(']', first); first = false {
			flat = append(flat, 0)
			s.float(&flat[len(flat)-1])
		}
		rows = append(rows, flat[start:len(flat):len(flat)])
	}
	*dst = rows
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

// fields lists the keys of a JSON object in encoding/json's order and how
// to read each into a T and write each out of one.
type fields[T any] []field[T]

type field[T any] struct {
	key   string
	read  func(*scanner, *T)
	write func(*encoder, *T)
}

// intKey and stringKey are the entries of keys whose values are the int or
// string of a T that at finds; an omitempty string is left out when empty.
func intKey[T any](key string, at func(*T) *int) field[T] {
	return field[T]{key, func(s *scanner, v *T) { s.int(at(v)) }, func(e *encoder, v *T) { e.int(*at(v)) }}
}

func stringKey[T any](key string, omitempty bool, at func(*T) *string) field[T] {
	write := func(e *encoder, v *T) { e.string(*at(v)) }
	if omitempty {
		write = func(e *encoder, v *T) { opt(e, *at(v), (*encoder).string) }
	}
	return field[T]{key, func(s *scanner, v *T) { s.string(at(v)) }, write}
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
