package wire_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"visibility/internal/wire"
)

// decodeStdlib is Decode as it was before the scanner: encoding/json with
// DisallowUnknownFields, then Validate. It survives as the scanner's oracle.
func decodeStdlib(data []byte) (*wire.Workload, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var wl wire.Workload
	if err := dec.Decode(&wl); err != nil {
		return nil, fmt.Errorf("wire: decoding workload: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("wire: trailing data after workload")
	}
	if err := wl.Validate(); err != nil {
		return nil, err
	}
	return &wl, nil
}

// stricter is every way Decode is allowed to reject what decodeStdlib
// accepts, each with the substring of Decode's error that names it.
// encoding/json matches struct keys under Unicode case folding, lets a
// repeated key overwrite or merge into the first, and its More, the old
// trailing-data test, takes a stray closing delimiter for the end of an
// enclosing value; the scanner matches keys exactly and once and wants
// nothing but whitespace after the workload.
func stricter() []rejectRow {
	return []rejectRow{
		{"case-folded key", `{"Version":1}`, "unknown field"},
		{"unicode-folded key", `{"version":1,"taſks":[]}`, "unknown field"},
		{"duplicate key", `{"version":2,"version":1}`, "duplicate key"},
		{"duplicate key merges", taskJSON(`{"region":"r","field":"v","privilege":"write",` +
			`"kernel":{"name":"fill"},"kernel":{"args":{"value":1}}}`), "duplicate key"},
		{"duplicate argument", regionJSON(`,"init":{"v":{"name":"fill","args":{"value":1,"value":2}}}`), "duplicate key"},
		{"stray closing brace", `{"version":1}}`, "trailing data"},
		{"stray closing bracket", `{"version":1} ]`, "trailing data"},
	}
}

// FuzzWireDecode throws arbitrary bytes at the decoder, seeded with the
// example workload corpus. For every input: Decode never panics; anything
// it accepts encoding/json accepts, into a deeply equal workload, which
// Encode writes as json.Marshal does and which is a decode→encode→decode
// fixed point (the second decode yields the identical encoding); anything
// it rejects and encoding/json accepts is rejected for one of the stricter
// reasons.
func FuzzWireDecode(f *testing.F) {
	for _, name := range []string{"quickstart.json", "graphsim.json"} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":1,"regions":[{"name":"r","dim":1,"space":[[0,9]],"fields":["v"]}]}`))
	f.Add([]byte(`{"version":2,"nope":true}`))
	f.Add([]byte(bycolorBomb))
	f.Add([]byte(regionJSON(`,"init":{"v":null},"partitions":null`)))
	f.Add([]byte(taskJSON(`{"region":"r","field":"v","privilege":"write","kernel":{"name":"affine","args":{"scale":-0.5e+1,"offset":1E-7}}}`)))
	for _, row := range stricter() {
		f.Add([]byte(row.in))
	}
	// Strings the encoder must escape, floats at the edges of its number
	// format, and empty slices and maps next to absent ones.
	f.Add([]byte(`{"version":1,"name":"<a&b> \"q\" \u0001 ` + "\u2028 \xff" + `"}`))
	f.Add([]byte(taskJSON(`{"region":"r","field":"v","privilege":"write","kernel":{"name":"affine","args":{"scale":-0,"offset":1e21}}}`)))
	f.Add([]byte(taskJSON(`{"region":"r","field":"v","privilege":"reduce","op":"sum","kernel":{"name":"fill","args":{"value":0.1}}}`)))
	for _, v := range shortBoundaries() {
		text, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(taskJSON(`{"region":"r","field":"v","privilege":"write","kernel":{"name":"fill","args":{"value":` + string(text) + `}}}`)))
	}
	f.Add([]byte(`{"version":1,"regions":[],"tasks":[]}`))
	f.Add([]byte(regionJSON(`,"init":{},"partitions":[]`)))
	f.Add([]byte(`{"version":1,"regions":[{"name":"r","dim":1,"space":[[0,9]],"fields":["v"]}],"tasks":[{"name":"t",` +
		`"accesses":[{"region":"r","field":"v","privilege":"write","kernel":{"name":"identity","args":{}}}],"after":[]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		wl, err := wire.Decode(bytes.NewReader(data))
		ref, refErr := decodeStdlib(data)
		if err != nil {
			if refErr != nil {
				return // rejected by both, fine — the property is "no panic"
			}
			for _, row := range stricter() {
				if strings.Contains(err.Error(), row.want) {
					return
				}
			}
			t.Fatalf("encoding/json accepts what Decode rejects for an undocumented reason: %v", err)
		}
		if refErr != nil || !reflect.DeepEqual(wl, ref) {
			t.Fatalf("Decode accepted; encoding/json: err %v, workload\n%+v\nvs\n%+v", refErr, ref, wl)
		}
		var enc1 bytes.Buffer
		if err := wire.Encode(&enc1, wl); err != nil {
			t.Fatalf("accepted workload failed to encode: %v", err)
		}
		if want, err := json.Marshal(wl); err != nil || enc1.String() != string(want)+"\n" {
			t.Fatalf("Encode is not json.Marshal and a newline (err %v):\n%s\nvs\n%s", err, enc1.Bytes(), want)
		}
		wl2, err := wire.Decode(bytes.NewReader(enc1.Bytes()))
		if err != nil {
			t.Fatalf("encoding of accepted workload rejected on re-decode: %v", err)
		}
		var enc2 bytes.Buffer
		if err := wire.Encode(&enc2, wl2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatalf("decode→encode not a fixed point:\n%s\nvs\n%s", enc1.Bytes(), enc2.Bytes())
		}
	})
}
