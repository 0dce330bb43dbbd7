package wire_test

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"visibility/internal/wire"
)

// bitsEqual compares rows float by float, bit for bit (-0 is not 0), and no
// rows ("points":null, an empty region) apart from zero rows. A row the
// runtime hands out is never nil, so a null row may come back as an empty one.
func bitsEqual(a, b [][]float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestSnapshotRoundTrip holds AppendSnapshot to the bytes encoding/json
// made of the map the handler used to build, and ParseSnapshot to getting
// every float back bit for bit.
func TestSnapshotRoundTrip(t *testing.T) {
	edge := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 5e-324, 2.2250738585072014e-308,
		1e-7, 1e-6, 9.999999e-7, 1e20, 1e21, 123456789012345678901234, 1 << 53, math.MaxFloat64, -math.MaxFloat64, 1e-9, 1.5e-10,
		// Where the integer path hands over to strconv's float routines.
		1e15 - 1, -(1e15 - 1), 1e15, -1e15, -(1 << 53), 1e15 - 0.5, -1e20, -1e21}
	var rows [][]float64
	for i, v := range edge {
		rows = append(rows, []float64{float64(i), -float64(i), v})
	}
	for _, tc := range []struct {
		name, region, field string
		points              [][]float64
	}{
		{"edge floats", "N", "up", rows},
		{"empty region", "N", "up", nil},
		{"no rows", "N", "up", [][]float64{}},
		{"odd rows", "N", "up", [][]float64{{}, {7}, {1, 2, 3}}},
		{"odd names", "a \"b\"\\<c>&\u2028\x00\xff", "héllo\n", [][]float64{{0, 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := json.Marshal(map[string]any{"region": tc.region, "field": tc.field, "points": tc.points})
			if err != nil {
				t.Fatal(err)
			}
			got, err := wire.AppendSnapshot([]byte("prefix"), tc.region, tc.field, tc.points)
			if err != nil || string(got) != "prefix"+string(want) {
				t.Fatalf("AppendSnapshot (err %v)\n got %s\nwant prefix%s", err, got, want)
			}
			region, field, points, err := wire.ParseSnapshot(want)
			var ref struct {
				Region, Field string
				Points        [][]float64
			}
			if jerr := json.Unmarshal(want, &ref); jerr != nil {
				t.Fatal(jerr)
			}
			if err != nil || region != ref.Region || field != ref.Field || !bitsEqual(points, tc.points) || !bitsEqual(points, ref.Points) {
				t.Fatalf("ParseSnapshot = %q, %q, %v, err %v; want %q, %q, %v", region, field, points, err, ref.Region, ref.Field, tc.points)
			}
			// An older server indents; the body reads the same.
			indented, err := json.MarshalIndent(map[string]any{"region": tc.region, "field": tc.field, "points": tc.points}, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if r, f, p, err := wire.ParseSnapshot(indented); err != nil || r != region || f != field || !bitsEqual(p, points) {
				t.Fatalf("ParseSnapshot of the indented body = %q, %q, %v, err %v", r, f, p, err)
			}
		})
	}
}

// shortBoundaries are the edges of the short-decimal paths, which write a
// finite v with 1e-6 <= |v| < 1e15 that a decimal of at most 15 digits
// gives back, and read a literal of at most 15 digits with no exponent,
// without strconv: 15 and 16 significant digits, 1e-6 and 1e15 and the
// floats just below them, and a few values either side of the paths.
func shortBoundaries() []float64 {
	return []float64{
		0.123456789012345, 0.1234567890123456, 123456789.012345, 1234567890.123456, 999999999999999.9,
		1e-6, math.Nextafter(1e-6, 0), 1e15, math.Nextafter(1e15, 0),
		math.Copysign(0, -1), -0.5, 0.1, 517.8125, 1.0 / (1 << 20),
	}
}

// FuzzSnapshotNumber holds the number codec to encoding/json on every
// finite float64, driven as raw bits and as an int64 converted to float:
// the body is json.Marshal's bytes and parses back to the same bits, and
// the integer's own decimal text, and that text with a point put in it,
// parse to ParseFloat's bits.
func FuzzSnapshotNumber(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1e15 - 1, 1e15, 1 << 53, 1e20, 1e21, 0.5, 5e-324} {
		f.Add(math.Float64bits(v), int64(v))
		f.Add(math.Float64bits(-v), -int64(v))
	}
	for _, v := range shortBoundaries() {
		f.Add(math.Float64bits(v), int64(v))
		f.Add(math.Float64bits(-v), -int64(v))
	}
	for _, n := range []int64{123456789012345, 1234567890123456, 5178125, 1000000} { // 15 and 16 digits, dyadic, trailing zeros
		f.Add(uint64(0), n)
		f.Add(uint64(6), -n)
	}
	f.Add(uint64(0), int64(math.MinInt64))
	f.Fuzz(func(t *testing.T, bits uint64, n int64) {
		for _, v := range []float64{math.Float64frombits(bits), float64(n)} {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				continue
			}
			rows := [][]float64{{v}}
			want, err := json.Marshal(map[string]any{"region": "r", "field": "f", "points": rows})
			if err != nil {
				t.Fatal(err)
			}
			got, err := wire.AppendSnapshot(nil, "r", "f", rows)
			if err != nil || string(got) != string(want) {
				t.Fatalf("AppendSnapshot(%v) = %s, %v; json.Marshal %s", v, got, err, want)
			}
			if _, _, back, err := wire.ParseSnapshot(got); err != nil || !bitsEqual(back, rows) {
				t.Fatalf("ParseSnapshot(%s) = %v, %v; want %v bit for bit", got, back, err, rows)
			}
		}
		text := strconv.FormatInt(n, 10)
		// The same digits and a zero, with a point after the first digit or
		// later, as bits picks: a literal the writer never makes.
		lit, lead := text+"0", 1+strings.Count(text[:1], "-")
		at := lead + int(bits%uint64(len(lit)-lead))
		for _, text := range []string{text, lit[:at] + "." + lit[at:]} {
			want, _ := strconv.ParseFloat(text, 64)
			if _, _, back, err := wire.ParseSnapshot([]byte(`{"points":[[` + text + `]]}`)); err != nil || !bitsEqual(back, [][]float64{{want}}) {
				t.Fatalf("ParseSnapshot of %s = %v, %v; ParseFloat %v", text, back, err, want)
			}
		}
	})
}

// TestSnapshotNonFinite: a value JSON cannot carry is an error that says
// where it is, and no body.
func TestSnapshotNonFinite(t *testing.T) {
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		body, err := wire.AppendSnapshot(nil, "N", "up", [][]float64{{0, 4, 1}, {1, 5, v}, {2, 6, math.Inf(1)}})
		if body != nil || err == nil {
			t.Fatalf("AppendSnapshot(%v) = %q, %v; want no body and an error", v, body, err)
		}
		for _, want := range []string{`region "N"`, `field "up"`, "point [1 5]", fmt.Sprint(v)} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name %s", err, want)
			}
		}
	}
}

// TestSnapshotRejects: ParseSnapshot reads what AppendSnapshot writes and
// nothing looser.
func TestSnapshotRejects(t *testing.T) {
	for _, in := range []string{``, `null x`, `[]`, `{"points":[[1,]]}`, `{"points":[[01]]}`, `{"points":[[1e999]]}`, `{"points":[[NaN]]}`,
		`{"points":{}}`, `{"region":"N","region":"N"}`, `{"Region":"N"}`, `{"extra":1}`, `{"region":"N"}}`, `{"region":"\x01"}`, `{"region":"N`} {
		if _, _, _, err := wire.ParseSnapshot([]byte(in)); err == nil || !strings.Contains(err.Error(), "decoding snapshot") {
			t.Errorf("ParseSnapshot(%q) error = %v, want a decoding error", in, err)
		}
	}
}

// FuzzSnapshot: ParseSnapshot never panics, and what it accepts is a
// parse→append→parse fixed point that encoding/json reads the same way.
func FuzzSnapshot(f *testing.F) {
	f.Add([]byte(`{"field":"up","points":[[0,1.5],[1,-0],[2,1e-7],[3,1e21]],"region":"N"}`))
	f.Add([]byte(`{"field":"up","points":null,"region":"N"}`))
	f.Add([]byte(" {\n\"points\" : [ null , [ ] , [ 5e-324 ] ] , \"region\" : \"\\u00e9\\ud83d\\ude00\\ud800\" } "))
	f.Add([]byte(`{"field":"a","field":"b"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		region, field, points, err := wire.ParseSnapshot(data)
		if err != nil {
			return
		}
		var ref struct {
			Region, Field *string
			Points        [][]float64
		}
		if err := json.Unmarshal(data, &ref); err != nil {
			t.Fatalf("accepted what encoding/json rejects: %v", err)
		}
		if ref.Region != nil && *ref.Region != region || ref.Field != nil && *ref.Field != field || !bitsEqual(points, ref.Points) {
			t.Fatalf("parsed %q %q %v; encoding/json %v", region, field, points, ref)
		}
		body, err := wire.AppendSnapshot(nil, region, field, points)
		if err != nil {
			t.Fatalf("parsed snapshot does not render: %v", err)
		}
		region2, field2, points2, err := wire.ParseSnapshot(body)
		if err != nil || region2 != region || field2 != field || !bitsEqual(points2, points) {
			t.Fatalf("parse→append→parse moved (err %v):\n%s\n%s", err, data, body)
		}
	})
}
