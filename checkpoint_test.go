package visibility_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"visibility"
	"visibility/internal/index"
)

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	rt := visibility.New(visibility.Config{Validate: true})
	defer rt.Close()
	cells := rt.CreateRegion("cells", visibility.Line(0, 31), "a", "b")
	cells.Init("b", func(p visibility.Point) float64 { return -float64(p.C[0]) })
	blocks := cells.PartitionEqual("blocks", 4)
	windows := cells.Partition("windows", []visibility.IndexSpace{
		visibility.Line(4, 19), visibility.Line(12, 27),
	})

	for i := 0; i < 4; i++ {
		rt.Launch(visibility.TaskSpec{
			Name:     "w",
			Accesses: []visibility.Access{visibility.Write(blocks.Sub(i), "a")},
			Kernel: visibility.Kernel{Write: func(_ int, p visibility.Point, _ float64) float64 {
				return float64(p.C[0] * p.C[0])
			}},
		})
	}
	rt.Launch(visibility.TaskSpec{
		Name:     "bump",
		Accesses: []visibility.Access{visibility.Reduce(visibility.OpSum, windows.Sub(0), "a")},
		Kernel:   visibility.Kernel{Reduce: func(_ int, _ visibility.Point) float64 { return 1000 }},
	})

	var buf bytes.Buffer
	if err := rt.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	rt2, roots, err := visibility.Restore(strings.NewReader(buf.String()), visibility.Config{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	cells2, ok := roots["cells"]
	if !ok {
		t.Fatal("restored runtime missing region")
	}

	// Structure survived: same partitions, same pieces.
	parts := cells2.Partitions()
	if len(parts) != 2 || parts[0].PartitionName() != "blocks" || parts[1].PartitionName() != "windows" {
		t.Fatalf("restored partitions = %v", parts)
	}
	if !parts[0].Disjoint() || !parts[0].Complete() {
		t.Error("restored blocks partition lost properties")
	}
	if parts[1].Disjoint() {
		t.Error("restored windows partition should be aliased")
	}
	if !parts[1].Sub(1).Space().Equal(visibility.Line(12, 27)) {
		t.Errorf("restored piece = %v", parts[1].Sub(1).Space())
	}

	// Data survived: values equal the pre-checkpoint coherent contents.
	snap := rt2.Read(cells2, "a")
	for x := int64(0); x < 32; x++ {
		want := float64(x * x)
		if x >= 4 && x <= 19 {
			want += 1000
		}
		if v, _ := snap.Get(visibility.Pt(x)); v != want {
			t.Fatalf("restored a[%d] = %v, want %v", x, v, want)
		}
	}
	snapB := rt2.Read(cells2, "b")
	if v, _ := snapB.Get(visibility.Pt(7)); v != -7 {
		t.Errorf("restored b[7] = %v, want -7", v)
	}

	// The restored runtime keeps working: launch against restored pieces.
	rt2.Launch(visibility.TaskSpec{
		Name:     "w2",
		Accesses: []visibility.Access{visibility.Write(parts[0].Sub(0), "a")},
		Kernel:   visibility.Kernel{Write: func(_ int, _ visibility.Point, in float64) float64 { return in + 1 }},
	})
	snap = rt2.Read(cells2, "a")
	if v, _ := snap.Get(visibility.Pt(0)); v != 1 {
		t.Errorf("post-restore launch: a[0] = %v, want 1", v)
	}
}

// ckptFixture builds a checkpoint with structure worth corrupting — two
// fields, a disjoint and an aliased partition, launched writes and a
// reduction — and returns its bytes plus the coherent per-point contents
// it encodes, keyed field → coordinate.
func ckptFixture(t *testing.T) ([]byte, map[string]map[int64]float64) {
	t.Helper()
	rt := visibility.New(visibility.Config{})
	defer rt.Close()
	cells := rt.CreateRegion("cells", visibility.Line(0, 31), "a", "b")
	cells.Init("b", func(p visibility.Point) float64 { return -float64(p.C[0]) })
	blocks := cells.PartitionEqual("blocks", 4)
	windows := cells.Partition("windows", []visibility.IndexSpace{
		visibility.Line(4, 19), visibility.Line(12, 27),
	})
	for i := 0; i < 4; i++ {
		rt.Launch(visibility.TaskSpec{
			Name:     "w",
			Accesses: []visibility.Access{visibility.Write(blocks.Sub(i), "a")},
			Kernel: visibility.Kernel{Write: func(_ int, p visibility.Point, _ float64) float64 {
				return float64(p.C[0] * p.C[0])
			}},
		})
	}
	rt.Launch(visibility.TaskSpec{
		Name:     "bump",
		Accesses: []visibility.Access{visibility.Reduce(visibility.OpSum, windows.Sub(0), "a")},
		Kernel:   visibility.Kernel{Reduce: func(_ int, _ visibility.Point) float64 { return 1000 }},
	})

	var buf bytes.Buffer
	if err := rt.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]map[int64]float64)
	for _, f := range []string{"a", "b"} {
		want[f] = make(map[int64]float64)
		rt.Read(cells, f).Each(func(p visibility.Point, v float64) {
			want[f][p.C[0]] = v
		})
	}
	return buf.Bytes(), want
}

// tryRestore runs Restore under a panic guard: any panic is the bug the
// truncation/corruption tests exist to catch. On success it checks the
// restored contents equal the fixture's — the "round-trips or errors,
// never silently diverges" contract — and closes the runtime.
func tryRestore(t *testing.T, in []byte, want map[string]map[int64]float64, what string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Restore panicked on %s: %v", what, r)
		}
	}()
	rt, roots, err := visibility.Restore(bytes.NewReader(in), visibility.Config{})
	if err != nil {
		return
	}
	defer rt.Close()
	cells, ok := roots["cells"]
	if !ok {
		t.Fatalf("%s: restore succeeded but region is gone", what)
	}
	for f, pts := range want {
		snap := rt.Read(cells, f)
		for x, wv := range pts {
			if v, ok := snap.Get(visibility.Pt(x)); !ok || v != wv {
				t.Fatalf("%s: restore succeeded but %s[%d] = %v (ok=%v), want %v — silent divergence", what, f, x, v, ok, wv)
			}
		}
	}
}

// TestRestoreTruncatedInput truncates a valid checkpoint at every byte
// offset — generated, not hand-picked, so every field boundary in the
// encoding is hit — and requires Restore to error (or fully round-trip,
// for truncations that only drop trailing whitespace), never panic.
func TestRestoreTruncatedInput(t *testing.T) {
	ckpt, want := ckptFixture(t)
	step := 1
	if testing.Short() {
		step = 17 // prime stride still lands on every kind of boundary
	}
	for off := 0; off < len(ckpt); off += step {
		tryRestore(t, ckpt[:off], want, fmt.Sprintf("truncation at offset %d", off))
	}
}

// TestRestoreBitFlipInput flips one bit in every byte of a valid
// checkpoint (bit index rotating with the offset) and requires each
// corrupted image to either restore to identical contents or error —
// the checksum makes silent divergence structurally impossible.
func TestRestoreBitFlipInput(t *testing.T) {
	ckpt, want := ckptFixture(t)
	step := 1
	if testing.Short() {
		step = 13
	}
	for off := 0; off < len(ckpt); off += step {
		mut := append([]byte(nil), ckpt...)
		mut[off] ^= 1 << (off % 8)
		tryRestore(t, mut, want, "bit flip")
	}
}

func TestCheckpointBeforeAnyLaunch(t *testing.T) {
	rt := visibility.New(visibility.Config{})
	defer rt.Close()
	r := rt.CreateRegion("r", visibility.Line(0, 3), "v")
	r.Fill("v", 9)
	var buf bytes.Buffer
	if err := rt.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	rt2, roots, err := visibility.Restore(&buf, visibility.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	if v, _ := rt2.Read(roots["r"], "v").Get(visibility.Pt(2)); v != 9 {
		t.Errorf("restored value = %v, want 9", v)
	}
}

// Values travel in slab order, with no coordinates beside them, so a
// region beyond float64's exact integers (±2^53) round-trips like any
// other.
func TestCheckpointRoundTripsCoordinatesBeyond2To53(t *testing.T) {
	rt := visibility.New(visibility.Config{})
	defer rt.Close()
	const lo = 1 << 53
	r := rt.CreateRegion("r", visibility.Line(lo-1, lo+1), "v")
	r.Init("v", func(p visibility.Point) float64 { return float64(p.C[0] - lo) })
	var buf bytes.Buffer
	if err := rt.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	rt2, roots, err := visibility.Restore(&buf, visibility.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	snap := rt2.Read(roots["r"], "v")
	for x := int64(lo - 1); x <= lo+1; x++ {
		if v, ok := snap.Get(visibility.Pt(x)); !ok || v != float64(x-lo) {
			t.Errorf("restored v[2^53%+d] = %v (ok=%v), want %v", x-lo, v, ok, x-lo)
		}
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, _, err := visibility.Restore(strings.NewReader("not json"), visibility.Config{}); err == nil {
		t.Error("expected decode error")
	}
	if _, _, err := visibility.Restore(strings.NewReader(`{"version":99}`), visibility.Config{}); err == nil {
		t.Error("expected version error")
	}
}

// TestRestoreRejectsCorruptInput feeds Restore the malformed shapes an
// untrusted checkpoint (e.g. the serving layer's restore endpoint) can
// carry; every one must come back as an error, never a panic.
func TestRestoreRejectsCorruptInput(t *testing.T) {
	region := func(mutate string) string {
		base := `{"name":"r","dim":1,"space":[[0,7]],"fields":["v"],"partitions":[],"values":{"v":[1,0,0,0,0,0,0,0]}}`
		if mutate != "" {
			base = mutate
		}
		return `{"version":2,"regions":[` + base + `]}`
	}
	cases := []struct {
		name string
		in   string
		want string // substring of the error
	}{
		{"empty region name",
			region(`{"name":"","dim":1,"space":[[0,7]],"fields":["v"]}`),
			"empty name"},
		{"duplicate region names",
			`{"version":2,"regions":[` +
				`{"name":"r","dim":1,"space":[[0,7]],"fields":["v"]},` +
				`{"name":"r","dim":1,"space":[[0,7]],"fields":["v"]}]}`,
			"duplicate region name"},
		{"no fields",
			region(`{"name":"r","dim":1,"space":[[0,7]],"fields":[]}`),
			"no fields"},
		{"duplicate field names",
			region(`{"name":"r","dim":1,"space":[[0,7]],"fields":["v","v"]}`),
			"duplicate field"},
		{"dim zero",
			region(`{"name":"r","dim":0,"space":[[0,7]],"fields":["v"]}`),
			"dimension 0"},
		{"dim too large",
			region(`{"name":"r","dim":9,"space":[[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]],"fields":["v"]}`),
			"dimension 9"},
		{"rect row wrong length",
			region(`{"name":"r","dim":2,"space":[[0,7]],"fields":["v"]}`),
			"malformed rect"},
		{"inverted rect lo > hi",
			region(`{"name":"r","dim":1,"space":[[7,0]],"fields":["v"]}`),
			"lo > hi"},
		{"partition parent out of range",
			region(`{"name":"r","dim":1,"space":[[0,7]],"fields":["v"],` +
				`"partitions":[{"parent":99,"name":"p","pieces":[[[0,3]]]}]}`),
			"unknown parent"},
		{"partition parent negative",
			region(`{"name":"r","dim":1,"space":[[0,7]],"fields":["v"],` +
				`"partitions":[{"parent":-1,"name":"p","pieces":[[[0,3]]]}]}`),
			"unknown parent"},
		{"partition piece outside parent",
			region(`{"name":"r","dim":1,"space":[[0,7]],"fields":["v"],` +
				`"partitions":[{"parent":0,"name":"p","pieces":[[[0,30]]]}]}`),
			"not a subset"},
		{"partition piece malformed rect",
			region(`{"name":"r","dim":1,"space":[[0,7]],"fields":["v"],` +
				`"partitions":[{"parent":0,"name":"p","pieces":[[[3]]]}]}`),
			"malformed rect"},
		{"values for unknown field",
			region(`{"name":"r","dim":1,"space":[[0,7]],"fields":["v"],"values":{"w":[0,0,0,0,0,0,0,0]}}`),
			"unknown field"},
		{"too few values",
			region(`{"name":"r","dim":1,"space":[[0,7]],"fields":["v"],"values":{"v":[1]}}`),
			"has 1 values for 8 points"},
		{"too many values",
			region(`{"name":"r","dim":1,"space":[[0,7]],"fields":["v"],"values":{"v":[0,0,0,0,0,0,0,0,1]}}`),
			"has 9 values for 8 points"},
		{"version 1",
			`{"version":1,"regions":[{"name":"r","dim":1,"space":[[0,7]],"fields":["v"],"values":{"v":[[0,1]]}}]}`,
			"unsupported checkpoint version 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Restore panicked: %v", r)
				}
			}()
			rt, _, err := visibility.Restore(strings.NewReader(tc.in), visibility.Config{})
			if rt != nil {
				defer rt.Close()
			}
			if err == nil {
				t.Fatal("Restore accepted corrupt input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// FuzzRestore drives the whole-checkpoint decoder — the one place input
// from outside the program writes into a Store — with arbitrary bytes: it
// must never panic, and whatever it accepts must reach a fixed point after
// one encode (decode → encode → decode → encode gives the same bytes).
func FuzzRestore(f *testing.F) {
	region := func(body string) []byte { return []byte(`{"version":2,"regions":[` + body + `]}`) }
	f.Add(region(`{"name":"r","dim":1,"space":[[0,7]],"fields":["v"],"partitions":[{"parent":0,"name":"p","pieces":[[[0,3]],[[2,7]]]}],"values":{"v":[1,0,0,0,0,0,0,-2.5]}}`))
	f.Add(region(`{"name":"r","dim":2,"space":[[0,1,0,2],[4,5,0,2],[0,5,3,3]],"fields":["a","b"],"values":{"a":[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17],"b":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1e300]}}`))
	f.Add(region(`{"name":"r","dim":1,"space":[[0,7]],"fields":["v"],"values":{"v":[1,2,3]}}`))
	f.Add(region(`{"name":"r","dim":1,"space":[[0,7]],"fields":["v"],"values":{"v":[2.5,1e19,-0,3,-1e-300,0,0,0]}}`))
	f.Add(region(`{"name":"r","dim":3,"space":[[0,1,0,1,9007199254740993,9007199254740993]],"fields":["v"],"values":{"v":[1,2,3,4]}}`))
	f.Add(region(`{"name":"r","dim":1,"space":[[9007199254740993,9007199254740993]],"fields":["v"]}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{"version":1,"regions":[{"name":"r","dim":1,"space":[[0,7]],"fields":["v"],"values":{"v":[[0,1]]}}]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		// A region costs memory by its declared volume, not by its bytes:
		// keep the ones the fuzzer builds small.
		var shape struct {
			Regions []struct {
				Dim   int       `json:"dim"`
				Space [][]int64 `json:"space"`
			} `json:"regions"`
		}
		if json.Unmarshal(raw, &shape) == nil {
			for _, r := range shape.Regions {
				if sp, err := index.FromRows(r.Dim, r.Space); err == nil && !sp.VolumeAtMost(1<<12) {
					return
				}
			}
		}
		encode := func(in []byte) []byte {
			rt, _, err := visibility.Restore(bytes.NewReader(in), visibility.Config{})
			if err != nil {
				return nil
			}
			defer rt.Close()
			var out bytes.Buffer
			if err := rt.Checkpoint(&out); err != nil {
				t.Fatalf("Checkpoint of a restored runtime: %v", err)
			}
			return out.Bytes()
		}
		once := encode(raw)
		if once == nil {
			return
		}
		twice := encode(once)
		if twice == nil {
			t.Fatalf("Restore rejects its own checkpoint:\n%s", once)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("no fixed point:\n%s\n%s", once, twice)
		}
	})
}
