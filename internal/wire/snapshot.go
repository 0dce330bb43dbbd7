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
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// appendFloat appends a finite f in encoding/json's number format: the
// shortest text that parses back to f, with an exponent only outside
// [1e-6, 1e21) and no leading zero in a negative one.
func appendFloat(dst []byte, f float64) []byte {
	if f > -1e15 && f < 1e15 && f == float64(int64(f)) && (f != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(dst, int64(f), 10)
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
		}},
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
