package wire_test

import (
	"bytes"
	"fmt"
	"testing"

	"visibility/internal/wire"
)

// batchBody is the encoding of the batch visperf's serve_batch submits every
// step: four graphsim iterations over 16 pieces, 128 tasks of a write and a
// reduce each, every access with a kernel — no declarations, so Decode's
// Validate leaves the references to a session.
func batchBody(tb testing.TB) []byte {
	affine := &wire.FuncSpec{Name: "affine", Args: map[string]float64{"scale": 0.5, "offset": 0.625}}
	fill := &wire.FuncSpec{Name: "fill", Args: map[string]float64{"value": 0.1875}}
	wl := &wire.Workload{Version: wire.Version, Name: "serve_batch-batch"}
	for it := 0; it < 4; it++ {
		for _, phase := range [][3]string{{"t1", "up", "down"}, {"t2", "down", "up"}} {
			for i := 0; i < 16; i++ {
				wl.Tasks = append(wl.Tasks, wire.TaskDecl{Name: phase[0], Accesses: []wire.AccessDecl{
					{Region: fmt.Sprintf("P[%d]", i), Field: phase[1], Privilege: "write", Kernel: affine},
					{Region: fmt.Sprintf("G[%d]", i), Field: phase[2], Privilege: "reduce", Op: "sum", Kernel: fill},
				}})
			}
		}
	}
	var buf bytes.Buffer
	if err := wire.Encode(&buf, wl); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeAllocations pins Decode of the serve_batch batch at or below
// what encoding/json's reflection cost at PR 23: 4,259 allocations.
func TestDecodeAllocations(t *testing.T) {
	body := batchBody(t)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := wire.Decode(bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4259 {
		t.Fatalf("Decode of the %d-byte batch allocates %.0f times, want <= 4259", len(body), allocs)
	}
	t.Logf("Decode of the %d-byte batch: %.0f allocations", len(body), allocs)
}

func BenchmarkWireDecode(b *testing.B) {
	body := batchBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Decode(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireSnapshot renders and parses the serve_batch snapshot: 1,024
// points of one coordinate and a dyadic value.
func BenchmarkWireSnapshot(b *testing.B) {
	rows := make([][]float64, 1024)
	for i := range rows {
		rows[i] = []float64{float64(i), float64(i) + 0.8125}
	}
	var body []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if body, err = wire.AppendSnapshot(body[:0], "N", "up", rows); err != nil {
			b.Fatal(err)
		}
		if _, _, _, err = wire.ParseSnapshot(body); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(body)))
}
