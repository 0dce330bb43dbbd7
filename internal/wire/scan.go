package wire

import (
	"bytes"
	"encoding/binary"
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
// few names and specs on every task, and the same access lists on every
// iteration, so Decode's scanner keeps one copy of each string it reads
// and each access list (seen, when non-nil) and the specs it has read. A
// scanner may instead hold the whole input as one string, text, when what
// it reads may keep all of it: then a string without escapes is a window
// of text and costs no allocation.
type scanner struct {
	b     []byte
	i     int
	err   error
	seen  *repeats
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

// repeats is what a Decode keeps of the body it reads: one copy of each
// string, and each access list with its text. Both are fixed tables, open
// addressed on the FNV-1a hash of the bytes (of a list, its first
// listKey), so a repeat costs a hash and a compare or two; an entry whose
// short probe run is full is not kept.
type repeats struct {
	strs  interner
	lists [1 << listBits]listText
}

// interner holds the strings.
type interner [1 << strBits]string

const strBits, listBits, probes = 7, 6, 4

// slot is the home slot of hash h in a table of 1<<bits: the top bits of
// a Fibonacci multiply, which every bit of h reaches.
func slot(h uint64, bits uint) uint32 { return uint32(h * 0x9E3779B97F4A7C15 >> (64 - bits)) }

// listText is an access list and its exact text.
type listText struct {
	text []byte
	list []AccessDecl
}

// listKey is how many leading bytes of an access list its slot hashes,
// eight at a time: the first reference and field, which is what tells a
// batch's lists apart.
const listKey = 32

func listHash(b []byte) uint64 {
	if len(b) < listKey {
		return uint64(fnv(b))
	}
	h := uint64(fnvOffset)
	for i := 0; i < listKey; i += 8 {
		h = (h ^ binary.LittleEndian.Uint64(b[i:])) * 0x100000001b3 // FNV-1a's 64-bit prime
	}
	return h
}

const fnvOffset, fnvPrime = 2166136261, 16777619

func fnv(b []byte) uint32 {
	h := uint32(fnvOffset)
	for _, c := range b {
		h = (h ^ uint32(c)) * fnvPrime
	}
	return h
}

// get returns the copy of b, whose hash is h.
func (t *interner) get(b []byte, h uint32) string {
	home := slot(uint64(h), strBits)
	for i := range uint32(probes) {
		switch e := &t[(home+i)%uint32(len(t))]; *e {
		case string(b):
			return *e
		case "":
			*e = string(b)
			return *e
		}
	}
	return string(b)
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
// Compact bodies have none, so the first test returns most of the time.
func (s *scanner) peek() byte {
	if s.i < len(s.b) && s.b[s.i] > ' ' {
		return s.b[s.i]
	}
	return s.space()
}

func (s *scanner) space() byte {
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
	start := s.i
	for s.i < len(s.b) && !stops[s.b[s.i]] {
		s.i++
	}
	if s.i < len(s.b) && s.b[s.i] == '"' {
		s.i++
		return s.b[start : s.i-1]
	}
	for ; s.i < len(s.b); s.i++ {
		switch s.b[s.i] {
		case '"':
			s.i++
			var out string
			if err := json.Unmarshal(s.b[start-1:s.i], &out); err != nil {
				s.fail("%v", err)
			}
			return []byte(out)
		case '\\':
			s.i++ // whatever is escaped does not close the string
		}
	}
	s.fail("unterminated string")
	return nil
}

// stops marks the bytes that end str's plain run: the closing quote, and
// the escape, control and non-ASCII bytes that need encoding/json.
var stops = func() (t [256]bool) {
	for c := range t {
		t[c] = c == '"' || c == '\\' || c < ' ' || c >= 0x80
	}
	return t
}()

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

// pow10 holds the powers of ten the short-decimal paths scale by, each
// exact in a float64.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// short reads a number literal of at most 15 digits and no exponent as
// float64(m) / 10^k, m its digits and k the length of its fraction. m and
// 10^k are exact and the division rounds once, ParseFloat's own exact
// path, so the bits are ParseFloat's, -0 included. Any other literal it
// leaves unread, for num and ParseFloat.
func (s *scanner) short() (float64, bool) {
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var m uint64
	first := i
	for ; i < len(b) && b[i]-'0' < 10; i++ {
		m = m*10 + uint64(b[i]-'0')
	}
	whole, k := i-first, 0
	if whole == 0 || whole > 1 && b[first] == '0' {
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		for first = i; i < len(b) && b[i]-'0' < 10; i++ {
			m = m*10 + uint64(b[i]-'0')
		}
		if k = i - first; k == 0 {
			return 0, false
		}
	}
	if whole+k > 15 || i < len(b) && b[i]|0x20 == 'e' {
		return 0, false
	}
	v := float64(m) / pow10[k]
	if neg {
		v = -v
	}
	s.i = i
	return v, true
}

// The readers fill the value they are given, or leave it zero for a null.

func (s *scanner) string(dst *string) {
	if s.null() || s.seen != nil && s.interned(dst) {
		return
	}
	b := s.str()
	if at := s.i - 1 - len(b); s.text != "" && len(b) > 0 && &b[0] == &s.b[at] {
		*dst = s.text[at : s.i-1]
		return
	}
	if s.seen != nil {
		*dst = s.seen.strs.get(b, fnv(b))
		return
	}
	*dst = string(b)
}

// interned reads a string with no byte str would hand to encoding/json and
// returns the interner's copy, hashing it in the pass that finds its
// closing quote; any other string it leaves unread.
func (s *scanner) interned(dst *string) bool {
	if s.i == len(s.b) || s.b[s.i] != '"' {
		return false
	}
	i, h := s.i+1, uint32(fnvOffset)
	for ; i < len(s.b) && !stops[s.b[i]]; i++ {
		h = (h ^ uint32(s.b[i])) * fnvPrime
	}
	if i == len(s.b) || s.b[i] != '"' {
		return false
	}
	*dst, s.i = s.seen.strs.get(s.b[s.i+1:i], h), i+1
	return true
}

// accesses reads a task's access list, or takes the one read from the same
// text: an array ends at its own closing bracket, so a body that starts
// with a remembered list's bytes holds that list, checked when it was
// first read, and the tasks that repeat it share one slice.
func (s *scanner) accesses(dst *[]AccessDecl) {
	s.peek()
	home := slot(listHash(s.b[s.i:]), listBits)
	for i := range uint32(probes) {
		l := &s.seen.lists[(home+i)%uint32(len(s.seen.lists))]
		if l.text == nil {
			start := s.i
			array(s, dst, accessFields.read)
			if s.err == nil && len(*dst) > 0 {
				*l = listText{s.b[start:s.i], *dst}
			}
			return
		}
		if bytes.HasPrefix(s.b[s.i:], l.text) {
			s.i += len(l.text)
			*dst = l.list
			return
		}
	}
	array(s, dst, accessFields.read)
}

func (s *scanner) float(dst *float64) {
	if s.null() {
		return
	}
	v, ok := s.short()
	if !ok {
		var err error
		if v, err = strconv.ParseFloat(string(s.num()), 64); err != nil {
			s.fail("number outside float64")
		}
	}
	*dst = v
}

func (s *scanner) integer(bits int) int64 {
	if s.null() {
		return 0
	}
	num := s.num()
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
		if s.open('[') && !s.eat(']') {
			for more := true; more; more = s.eat(',') {
				v, ok := s.short() // a compact body's numbers, without float's null test
				if !ok {
					s.float(&v)
				}
				flat = append(flat, v)
			}
			s.expect(']')
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
	// empty, set on an omitempty field, reports that a T's value is its
	// type's zero, which leaves the key out.
	empty func(*T) bool
}

// intKey and stringKey are the entries of keys whose values are the int or
// string of a T that at finds; an omitempty string is left out when empty.
func intKey[T any](key string, at func(*T) *int) field[T] {
	return field[T]{key, func(s *scanner, v *T) { s.int(at(v)) }, func(e *encoder, v *T) { e.int(*at(v)) }, nil}
}

func stringKey[T any](key string, omitempty bool, at func(*T) *string) field[T] {
	f := field[T]{key, func(s *scanner, v *T) { s.string(at(v)) }, func(e *encoder, v *T) { e.string(*at(v)) }, nil}
	if omitempty {
		f.empty = func(v *T) bool { return *at(v) == "" }
	}
	return f
}

// read reads an object with keys out of f, each spelled exactly and once.
func (f fields[T]) read(s *scanner, dst *T) {
	if !s.open('{') {
		return
	}
	seen, next := 0, 0 // bit i: f[i] was read; next: the index after the last key read
	for n := 0; s.more('}', n == 0); n++ {
		i, k := f.key(s, next)
		s.expect(':')
		switch {
		case i == len(f):
			s.fail("unknown field %q", k)
		case seen>>i&1 != 0:
			s.fail("duplicate key %q", k)
		default:
			seen, next = seen|1<<i, i+1
			f[i].read(s, dst)
		}
	}
}

// key reads a member's key and returns its index in f, len(f) for none,
// and its text. A canonical body writes keys in table order, so the raw
// bytes are matched first against the keys from next on, none of which
// needs an escape; a key none of them spells goes through str.
func (f fields[T]) key(s *scanner, next int) (int, []byte) {
	if s.peek() == '"' {
		rest := s.b[s.i+1:]
		for i := next; i < len(f); i++ {
			if k := f[i].key; len(rest) > len(k) && rest[len(k)] == '"' && string(rest[:len(k)]) == k {
				s.i += len(k) + 2
				return i, rest[:len(k)]
			}
		}
	}
	k := s.str()
	i := 0
	for i < len(f) && f[i].key != string(k) {
		i++
	}
	return i, k
}
