package wire

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendSnapshot appends the body of a snapshot response — the contents of
// one field of one region, a (coordinates..., value) row per point — to dst,
// byte for byte what json.Marshal makes of a map with these three keys. A
// value JSON has no form for is an error, not a body.
func AppendSnapshot(dst []byte, region, field string, points [][]float64) ([]byte, error) {
	for _, row := range points {
		for _, v := range row {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return nil, fmt.Errorf("wire: snapshot of region %q field %q: %v at point %v has no JSON form",
					region, field, v, row[:len(row)-1])
			}
		}
	}
	return encode(dst, &snapshot{region, field, points}, snapshotFields)
}

// appendString appends s as encoding/json quotes it: as is when no byte
// needs an escape, the usual case for names; else through json.Marshal,
// so its escaping rules are not repeated here.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if escaped[s[i]] {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// escaped marks the bytes encoding/json escapes, or may: controls, quotes,
// backslashes, HTML's <, > and &, and every byte of a non-ASCII rune.
var escaped = func() (t [256]bool) {
	for c := range t {
		t[c] = c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&'
	}
	return t
}()

// appendFloat appends a finite f in encoding/json's number format: the
// shortest text that parses back to f, with an exponent only outside
// [1e-6, 1e21) and no leading zero in a negative one.
func appendFloat(dst []byte, f float64) []byte {
	if f > -1e15 && f < 1e15 && f == float64(int64(f)) && (f != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(dst, int64(f), 10)
	}
	if out, ok := appendShort(dst, f); ok {
		return out
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst = append(dst[:n-2], dst[n-1])
	}
	return dst
}

// appendShort appends a finite f with 1e-6 <= |f| < 1e15 that a decimal of
// at most 15 digits gives back: round(|f|·10^k) / 10^k for the least k
// whose exact division is f; false for any other f. Two decimals of at
// most 15 digits never round to the same float64, so that decimal is the
// shortest one, strconv's, and written the same way.
//
// The decimal is found at the largest k that keeps |f|·10^k below 1e15:
// a shorter one, m/10^j, scaled by 10^k is an integer within 0.2 of the
// rounded product (f is within half an ulp of it, the product within half
// of its own), so the rounding finds it with k-j trailing zeros.
func appendShort(dst []byte, f float64) ([]byte, bool) {
	abs := math.Abs(f)
	if abs < 1e-6 || abs >= 1e15 {
		return dst, false
	}
	k := len(pow10) - 1
	for k > 0 && abs*pow10[k] >= 1e15 {
		k--
	}
	m := math.Round(abs * pow10[k])
	if m/pow10[k] != abs {
		return dst, false
	}
	// Strip the fraction's trailing zeros, 15 at most, by constant divisors.
	u := uint64(m)
	if k >= 8 && u%1e8 == 0 {
		u, k = u/1e8, k-8
	}
	if k >= 4 && u%1e4 == 0 {
		u, k = u/1e4, k-4
	}
	if k >= 2 && u%100 == 0 {
		u, k = u/100, k-2
	}
	if k >= 1 && u%10 == 0 {
		u, k = u/10, k-1
	}
	var buf [24]byte // written right to left: at most a sign, "0." and 15 digits
	i := len(buf)
	digit := func() {
		i--
		buf[i] = byte('0' + u%10)
		u /= 10
	}
	for ; k > 0; k-- {
		digit()
	}
	if i < len(buf) {
		i--
		buf[i] = '.'
	}
	for digit(); u > 0; {
		digit()
	}
	if f < 0 {
		i--
		buf[i] = '-'
	}
	return append(dst, buf[i:]...), true
}

// snapshot is the snapshot body, for the key table to read and write.
type snapshot struct {
	region, field string
	points        [][]float64
}

var snapshotFields = fields[snapshot]{
	stringKey("field", false, func(v *snapshot) *string { return &v.field }),
	{"points", func(s *scanner, v *snapshot) { s.slab(&v.points) },
		func(e *encoder, v *snapshot) {
			list(e, v.points, func(e *encoder, row *[]float64) {
				list(e, *row, func(e *encoder, v *float64) { e.b = appendFloat(e.b, *v) })
			})
		}, nil},
	stringKey("region", false, func(v *snapshot) *string { return &v.region }),
}

// ParseSnapshot reads a body AppendSnapshot wrote into rows of one slab.
func ParseSnapshot(data []byte) (region, field string, points [][]float64, err error) {
	s, v := &scanner{b: data}, new(snapshot)
	snapshotFields.read(s, v)
	if err := s.end(); err != nil {
		return "", "", nil, fmt.Errorf("wire: decoding snapshot: %w", err)
	}
	return v.region, v.field, v.points, nil
}
