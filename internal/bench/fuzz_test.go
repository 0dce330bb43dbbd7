package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecode throws arbitrary bytes at the record decoder — the boundary
// benchdiff and the CI gate read committed and freshly collected
// BENCH_<n>.json files through. It never panics, and a record it accepts
// re-encodes to a fixed point.
func FuzzDecode(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_visbench1.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`{"meta":{"schema":"VISBENCH1"},"cells":null}`))
	f.Add([]byte(`{"meta":{"schema":"VISBENCH2"}}`))
	f.Add([]byte(`{"meta":{"schema":"VISBENCH1","bogus":1}}`))
	f.Add([]byte(`{"meta":{"schema":"VISBENCH1"},"cells":[{"app":"b","nodes":2},{"app":"a","nodes":2},{"app":"a","nodes":1}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc1, enc2 bytes.Buffer
		if err := r.Encode(&enc1); err != nil {
			t.Fatalf("accepted record failed to encode: %v", err)
		}
		r2, err := Decode(bytes.NewReader(enc1.Bytes()))
		if err != nil {
			t.Fatalf("encoding of accepted record rejected on re-decode: %v", err)
		}
		if err := r2.Encode(&enc2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatalf("decode→encode not a fixed point:\n%s\nvs\n%s", enc1.Bytes(), enc2.Bytes())
		}
	})
}
