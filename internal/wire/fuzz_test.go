package wire_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"visibility/internal/wire"
)

// FuzzWireDecode throws arbitrary bytes at the strict decoder, seeded
// with the example workload corpus. Two properties must hold for every
// input: Decode never panics, and anything it accepts is a decode→encode→
// decode fixed point (the second decode yields the identical encoding).
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

	f.Fuzz(func(t *testing.T, data []byte) {
		wl, err := wire.Decode(bytes.NewReader(data))
		if err != nil {
			return // rejected, fine — the property is "no panic"
		}
		var enc1 bytes.Buffer
		if err := wire.Encode(&enc1, wl); err != nil {
			t.Fatalf("accepted workload failed to encode: %v", err)
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
