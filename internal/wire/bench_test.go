package wire_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"visibility"
	"visibility/internal/obs"
	"visibility/internal/testutil"
	"visibility/internal/wire"
)

// batch is the batch a visperf serve workload submits every step: iters
// graphsim iterations over pieces pieces, tasks of a write and a reduce
// each, every access with one of four kernel specs — no declarations, so
// Decode's Validate leaves the references to a session.
func batch(name string, iters, pieces int) *wire.Workload {
	wl := &wire.Workload{Version: wire.Version, Name: name + "-batch"}
	for it := 0; it < iters; it++ {
		for _, phase := range []struct {
			name, write, reduce string
			kernel, contra      float64
		}{{"t1", "up", "down", 0.625, 0.1875}, {"t2", "down", "up", 0.25, 0.0625}} {
			affine := &wire.FuncSpec{Name: "affine", Args: map[string]float64{"scale": 0.5, "offset": phase.kernel}}
			fill := &wire.FuncSpec{Name: "fill", Args: map[string]float64{"value": phase.contra}}
			for i := 0; i < pieces; i++ {
				wl.Tasks = append(wl.Tasks, wire.TaskDecl{Name: phase.name, Accesses: []wire.AccessDecl{
					{Region: fmt.Sprintf("P[%d]", i), Field: phase.write, Privilege: "write", Kernel: affine},
					{Region: fmt.Sprintf("G[%d]", i), Field: phase.reduce, Privilege: "reduce", Op: "sum", Kernel: fill},
				}})
			}
		}
	}
	return wl
}

// batches are the two served shapes: serve_batch's 128 tasks and
// serve_query's 8, so a change that helps one and hurts the other shows.
var batches = []*wire.Workload{batch("serve_batch", 4, 16), batch("serve_query", 1, 4)}

func encode(tb testing.TB, wl *wire.Workload) []byte {
	var buf bytes.Buffer
	if err := wire.Encode(&buf, wl); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeAllocations pins Decode of the serve_batch batch near what it
// measures now that each repeated access list is read once, the body
// buffer is recycled, the check carves every launch's accesses from one
// slice and the plan rides in the returned Batch: 134 allocations (137
// when a process-wide table held the plan weakly, 359 when only names and
// specs were read once, 3,479 before that; encoding/json's reflection
// took 4,259).
func TestDecodeAllocations(t *testing.T) {
	body := encode(t, batches[0])
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := wire.Decode(bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 147 {
		t.Fatalf("Decode of the %d-byte batch allocates %.0f times, want <= 147", len(body), allocs)
	}
	t.Logf("Decode of the %d-byte batch: %.0f allocations", len(body), allocs)
}

// ring declares the region a serve workload's batches run on: a ring of
// points in equal pieces P, with ghost pieces G = image(P, ring) − P.
func ring(points, pieces int) *wire.Workload {
	return &wire.Workload{Version: wire.Version, Name: "ring", Regions: []wire.RegionDecl{{
		Name:   "N",
		Dim:    1,
		Space:  [][]int64{{0, int64(points) - 1}},
		Fields: []string{"up", "down"},
		Init:   map[string]*wire.FuncSpec{"up": {Name: "coord", Args: map[string]float64{"axis": 0}}},
		Partitions: []wire.PartitionDecl{
			{Name: "P", Kind: "equal", Pieces: pieces},
			{Name: "reach", Kind: "image", Source: "P", Relation: &wire.FuncSpec{Name: "ring",
				Args: map[string]float64{"radius": 4, "modulo": float64(points)}}},
			{Name: "G", Kind: "minus", Left: "reach", Right: "P"},
		},
	}}}
}

// TestApplyAllocations pins what one steady launch of the serve_batch
// batch allocates on the service path below the wire: Env.Apply and
// Runtime.Wait on Warnock, so analysis, scheduling, materialization, the
// kernel and commit. A write maps its kernel in
// place over its materialized input, the executor's tables are slices,
// the task, its requirements and its Result are carved from chunks, and
// the wire builds each launch's kernel once per batch at check time and
// its accesses in the session's scratch: about 2,520 bytes and 14.0
// allocations per launch, from 2,580 and 17.7 when spec() built a fresh
// access slice and two kernel closures per launch, 2,430 and 23.4 when
// each of the carved values was allocated on its own, and 3,095 and 25.5
// when each write also filled a second store. The race detector measures
// about 2,525 and 14.5, and its bounds are 2,600 and 17.
func TestApplyAllocations(t *testing.T) {
	rt := visibility.New(visibility.Config{Algorithm: "warnock"})
	defer rt.Close()
	env := wire.NewEnv(rt)
	if _, err := env.Apply(ring(1024, 16)); err != nil {
		t.Fatal(err)
	}
	step := func() {
		if _, err := env.Apply(batches[0]); err != nil {
			t.Fatal(err)
		}
		rt.Wait()
	}
	for i := 0; i < 20; i++ {
		step()
	}
	maxAllocs, maxBytes := 16.0, 2575.0
	if testutil.RaceEnabled() {
		maxAllocs, maxBytes = 17, 2600
	}
	const steps = 20
	before := obs.ReadAllocs()
	for i := 0; i < steps; i++ {
		step()
	}
	allocs, bytes := obs.ReadAllocs().Since(before)
	launches := float64(steps * len(batches[0].Tasks))
	perAllocs, perBytes := float64(allocs)/launches, float64(bytes)/launches
	if perAllocs > maxAllocs || perBytes > maxBytes {
		t.Errorf("a steady serve_batch launch allocates %.1f times and %.0f bytes, want at most %.0f and %.0f",
			perAllocs, perBytes, maxAllocs, maxBytes)
	} else {
		t.Logf("%.2f allocations and %.0f bytes per launch", perAllocs, perBytes)
	}
}

// TestEncodeAllocations: AppendWorkload of the serve_batch batch into a
// buffer of exactly the body's length, as client.Session.Submit sizes its
// buffer, allocates nothing: no key is written ahead of a value that turns
// out empty. Its state is pooled, so the pin skips under the race
// detector.
func TestEncodeAllocations(t *testing.T) {
	if testutil.RaceEnabled() {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	buf := make([]byte, 0, len(encode(t, batches[0])))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := wire.AppendWorkload(buf, batches[0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendWorkload of the %d-byte batch into a buffer of its length allocates %.0f times, want 0", cap(buf), allocs)
	}
}

// snapshotBody renders the serve_batch snapshot shape: n points of one
// coordinate and a dyadic value.
func snapshotBody(tb testing.TB, n int) ([][]float64, []byte) {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{float64(i), float64(i) + 0.8125}
	}
	body, err := wire.AppendSnapshot(nil, "N", "up", rows)
	if err != nil {
		tb.Fatal(err)
	}
	return rows, body
}

// TestParseSnapshotAllocations pins ParseSnapshot at a fixed number of
// allocations whatever the row count: one slab of values, one slice of
// rows, the names, the scanner.
func TestParseSnapshotAllocations(t *testing.T) {
	var counts []float64
	for _, n := range []int{16, 1024} {
		_, body := snapshotBody(t, n)
		counts = append(counts, testing.AllocsPerRun(20, func() {
			if _, _, _, err := wire.ParseSnapshot(body); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if counts[0] != counts[1] || counts[1] > 8 {
		t.Fatalf("ParseSnapshot allocates %.0f times for 16 rows and %.0f for 1,024; want the same, <= 8", counts[0], counts[1])
	}
	t.Logf("ParseSnapshot: %.0f allocations at 16 and 1,024 rows", counts[1])
}

// TestReadBodyCapped: a declared length sizes the buffer, and a lying one
// reserves no more than the cap.
func TestReadBodyCapped(t *testing.T) {
	for _, tc := range []struct {
		declared int64
		maxCap   int
	}{{10, 10 + bytes.MinRead}, {64 << 20, 1 << 20}} {
		got, err := wire.ReadBody(strings.NewReader("0123456789"), tc.declared)
		if err != nil || string(got) != "0123456789" || cap(got) > tc.maxCap {
			t.Errorf("ReadBody(declared %d) = %q (cap %d), %v; want the body in cap <= %d", tc.declared, got, cap(got), err, tc.maxCap)
		}
	}
	body := bytes.Repeat([]byte("x"), 3<<20)
	if got, err := wire.ReadBody(bytes.NewReader(body), 10); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("ReadBody past an understated length = %d bytes, %v", len(got), err)
	}
	rd := bytes.NewReader(nil)
	allocs := testing.AllocsPerRun(20, func() {
		rd.Reset(body[:40000])
		if _, err := wire.ReadBody(rd, 40000); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("ReadBody of a truthfully declared 40,000-byte body allocates %.0f times, want 1", allocs)
	}
}

func BenchmarkWireDecode(b *testing.B) {
	for _, wl := range batches {
		b.Run(fmt.Sprintf("%d_tasks", len(wl.Tasks)), func(b *testing.B) {
			body := encode(b, wl)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := wire.Decode(bytes.NewReader(body)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireApply serves the serve_batch batch as the server does, one
// DecodeSized of a body with a declared length and one Env.Run of the
// batch it returns, and waits for it on Warnock: the wire layer's whole
// share of a served batch, and what it drives.
func BenchmarkWireApply(b *testing.B) {
	rt := visibility.New(visibility.Config{Algorithm: "warnock"})
	defer rt.Close()
	env := wire.NewEnv(rt)
	if _, err := env.Apply(ring(1024, 16)); err != nil {
		b.Fatal(err)
	}
	body := encode(b, batches[0])
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch, err := wire.DecodeSized(bytes.NewReader(body), int64(len(body)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := env.Run(batch); err != nil {
			b.Fatal(err)
		}
		rt.Wait()
	}
}

// BenchmarkWireEncode times Encode as a client without a buffer at hand
// calls it: into a new bytes.Buffer.
func BenchmarkWireEncode(b *testing.B) {
	for _, wl := range batches {
		b.Run(fmt.Sprintf("%d_tasks", len(wl.Tasks)), func(b *testing.B) {
			b.SetBytes(int64(len(encode(b, wl))))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if err := wire.Encode(&buf, wl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireSnapshot renders and parses the serve_batch snapshot: 1,024
// points of one coordinate and a dyadic value.
func BenchmarkWireSnapshot(b *testing.B) {
	rows, body := snapshotBody(b, 1024)
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
