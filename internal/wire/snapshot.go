package wire

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// AppendSnapshot appends the body of a snapshot response — the contents of
// one field of one region, a (coordinates..., value) row per point — to dst,
// byte for byte what json.Marshal makes of a map with these three keys. A
// value JSON has no form for is an error, not a body.
func AppendSnapshot(dst []byte, region, field string, points [][]float64) ([]byte, error) {
	dst = append(appendString(append(dst, `{"field":`...), field), `,"points":`...)
	if points == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, row := range points {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '[')
			for j, v := range row {
				if math.IsInf(v, 0) || math.IsNaN(v) {
					return nil, fmt.Errorf("wire: snapshot of region %q field %q: %v at point %v has no JSON form",
						region, field, v, row[:len(row)-1])
				}
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = appendFloat(dst, v)
			}
			dst = append(dst, ']')
		}
		dst = append(dst, ']')
	}
	return append(appendString(append(dst, `,"region":`...), region), '}'), nil
}

// appendString appends s as encoding/json quotes it. Names are the cold
// part of a snapshot, so its escaping rules are not repeated here.
func appendString(dst []byte, s string) []byte {
	quoted, _ := json.Marshal(s) // a string always marshals
	return append(dst, quoted...)
}

// appendFloat appends a finite f in encoding/json's number format: the
// shortest text that parses back to f, with an exponent only outside
// [1e-6, 1e21) and no leading zero in a negative one.
func appendFloat(dst []byte, f float64) []byte {
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

// snapshot is the snapshot body, for the scanner to fill.
type snapshot struct {
	region, field string
	points        [][]float64
}

var snapshotFields = fields[snapshot]{
	{"field", func(s *scanner, v *snapshot) { s.string(&v.field) }},
	{"points", func(s *scanner, v *snapshot) { array(s, &v.points, (*scanner).floats) }},
	{"region", func(s *scanner, v *snapshot) { s.string(&v.region) }},
}

func (s *scanner) floats(dst *[]float64) { array(s, dst, (*scanner).float) }

// ParseSnapshot reads a body AppendSnapshot wrote.
func ParseSnapshot(data []byte) (region, field string, points [][]float64, err error) {
	s, v := &scanner{b: data}, new(snapshot)
	snapshotFields.read(s, v)
	if err := s.end(); err != nil {
		return "", "", nil, fmt.Errorf("wire: decoding snapshot: %w", err)
	}
	return v.region, v.field, v.points, nil
}
