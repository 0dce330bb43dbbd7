package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"visibility/internal/harness"
	"visibility/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sampleRecord is a hand-pinned two-cell record used by the encoding and
// diff tests; field values are arbitrary but stable.
func sampleRecord() *Record {
	return &Record{
		Meta: Meta{
			Schema: Schema, Commit: "abc1234", GoVersion: "go1.24.0",
			GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 8,
			Reps: 3, Iters: 3, MaxNodes: 2, Apps: []string{"stencil"},
		},
		Cells: []Cell{
			{
				App: "stencil", System: "raycast_nodcr", Nodes: 1, Launches: 500,
				WallSeconds: 0.025, LaunchesPerSec: 20000,
				InitTime: 0.012, IterTime: 0.004, ThroughputPerNode: 250000,
				AllocsPerLaunch: 41.5, BytesPerLaunch: 3072,
				AnalysisP50Ns: 1500, AnalysisP95Ns: 4200, AnalysisP99Ns: 9000,
			},
			{
				App: "stencil", System: "raycast_dcr", Nodes: 2, Launches: 1000,
				WallSeconds: 0.05, LaunchesPerSec: 20000,
				InitTime: 0.013, IterTime: 0.0041, ThroughputPerNode: 245000,
				AllocsPerLaunch: 42, BytesPerLaunch: 3100,
				AnalysisP50Ns: 1600, AnalysisP95Ns: 4400, AnalysisP99Ns: 9100,
			},
		},
	}
}

// TestGoldenRoundTrip pins the VISBENCH1 wire format: the golden file
// decodes, re-encodes byte-identically, and Encode is idempotent on the
// decoded record — so committed BENCH_*.json files diff cleanly and the
// schema cannot drift silently.
func TestGoldenRoundTrip(t *testing.T) {
	golden := filepath.Join("testdata", "golden_visbench1.json")
	if *update {
		if err := WriteFile(golden, sampleRecord()); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Decode(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := rec.Encode(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("decode->encode is not byte-identical to the golden file:\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
	// Encoding the in-memory sample (whose cells are deliberately out of
	// canonical order) must also match: Encode sorts.
	var fresh bytes.Buffer
	if err := sampleRecord().Encode(&fresh); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.Bytes(), want) {
		t.Errorf("fresh encode differs from golden file:\ngot:\n%s", fresh.Bytes())
	}
}

func TestDecodeRejectsBadRecords(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"wrong schema", `{"meta":{"schema":"VISBENCH9"},"cells":[]}`, "unsupported schema"},
		{"missing schema", `{"meta":{},"cells":[]}`, "unsupported schema"},
		{"unknown field", `{"meta":{"schema":"VISBENCH1"},"cells":[],"extra":1}`, "unknown field"},
		{"not json", `nope`, "decoding record"},
	}
	for _, tc := range cases {
		_, err := Decode(strings.NewReader(tc.body))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestEncodeRefusesForeignSchema(t *testing.T) {
	r := sampleRecord()
	r.Meta.Schema = "VISBENCH9"
	if err := r.Encode(&bytes.Buffer{}); err == nil {
		t.Error("encoding a foreign schema did not fail")
	}
	// An empty schema is filled in with the pinned one.
	r.Meta.Schema = ""
	if err := r.Encode(&bytes.Buffer{}); err != nil {
		t.Errorf("encoding with empty schema: %v", err)
	}
	if r.Meta.Schema != Schema {
		t.Errorf("Encode left schema %q, want %s", r.Meta.Schema, Schema)
	}
}

// TestCollectSmall runs a real (tiny) collection and checks every cell
// is measured: wall time, throughput, allocation, and latency fields are
// populated, cells are canonically ordered, and the file round-trips.
func TestCollectSmall(t *testing.T) {
	rec, err := Collect(Options{Apps: []string{"stencil"}, MaxNodes: 2, Iters: 1, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 5 paper configs x 2 node counts.
	if len(rec.Cells) != 10 {
		t.Fatalf("got %d cells, want 10", len(rec.Cells))
	}
	if rec.Meta.Schema != Schema || rec.Meta.Reps != 2 || rec.Meta.GoVersion == "" || rec.Meta.GOMAXPROCS < 1 {
		t.Errorf("bad meta: %+v", rec.Meta)
	}
	for i, c := range rec.Cells {
		if c.Launches == 0 || c.WallSeconds <= 0 || c.LaunchesPerSec <= 0 {
			t.Errorf("cell %s: unmeasured throughput: %+v", c.Key(), c)
		}
		if c.AllocsPerLaunch <= 0 || c.BytesPerLaunch <= 0 {
			t.Errorf("cell %s: unmeasured allocations: %+v", c.Key(), c)
		}
		if c.AnalysisP95Ns <= 0 || c.AnalysisP99Ns < c.AnalysisP95Ns || c.AnalysisP95Ns < c.AnalysisP50Ns {
			t.Errorf("cell %s: implausible latency quantiles p50=%d p95=%d p99=%d",
				c.Key(), c.AnalysisP50Ns, c.AnalysisP95Ns, c.AnalysisP99Ns)
		}
		if c.InitTime <= 0 || c.IterTime <= 0 {
			t.Errorf("cell %s: missing virtual-time metrics: %+v", c.Key(), c)
		}
		if i > 0 {
			prev := rec.Cells[i-1]
			if prev.App > c.App || (prev.App == c.App && prev.System > c.System) ||
				(prev.App == c.App && prev.System == c.System && prev.Nodes >= c.Nodes) {
				t.Errorf("cells not in canonical order at %d: %s then %s", i, prev.Key(), c.Key())
			}
		}
	}

	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := WriteFile(path, rec); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := rec.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := back.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("collected record does not round-trip byte-identically")
	}
}

// TestOneLatencySamplePerLaunch checks the analysis-latency quantiles are
// taken over one sample per analyzed launch: a launch records one span,
// its analyze span, and nothing else.
func TestOneLatencySamplePerLaunch(t *testing.T) {
	app, err := harness.FindApp("circuit")
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range harness.PaperConfigs() {
		spans := obs.NewBuffer(spanCap)
		r, err := harness.Run(harness.Config{
			App: app.Build, AppName: "circuit", Algorithm: pc.Algorithm, DCR: pc.DCR,
			Nodes: 2, MeasureIters: 2, Spans: spans,
		})
		if err != nil {
			t.Fatal(err)
		}
		all := len(spans.Snapshot())
		if got := len(obs.SpanDurations(spans.Snapshot(), "analysis")); got != r.Launches || all != got {
			t.Errorf("%s: %d latency samples from %d spans, want both one per launch (%d)",
				r.System, got, all, r.Launches)
		}
	}
}

// TestCollectAutoTrace checks the -autotrace collection shape: every
// configuration gains a "_auto" sibling cell, measured and canonically
// ordered, with no change to the record schema.
func TestCollectAutoTrace(t *testing.T) {
	rec, err := Collect(Options{Apps: []string{"stencil"}, MaxNodes: 2, Iters: 1, AutoTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	// 5 paper configs x 2 node counts, doubled by the _auto siblings.
	if len(rec.Cells) != 20 {
		t.Fatalf("got %d cells, want 20", len(rec.Cells))
	}
	autos := 0
	for _, c := range rec.Cells {
		if !strings.HasSuffix(c.System, "_auto") {
			continue
		}
		autos++
		if c.Launches == 0 || c.WallSeconds <= 0 || c.LaunchesPerSec <= 0 {
			t.Errorf("cell %s: unmeasured throughput: %+v", c.Key(), c)
		}
	}
	if autos != 10 {
		t.Errorf("got %d _auto cells, want 10", autos)
	}
}

func TestCollectUnknownApp(t *testing.T) {
	if _, err := Collect(Options{Apps: []string{"zmachine"}, MaxNodes: 1}); err == nil {
		t.Error("collecting an unregistered app did not fail")
	}
}

// TestCollectProfiles checks -profile-out capture: one CPU and one heap
// profile per cell, each a non-empty pprof file.
func TestCollectProfiles(t *testing.T) {
	dir := t.TempDir()
	rec, err := Collect(Options{Apps: []string{"stencil"}, MaxNodes: 1, Iters: 1, ProfileDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rec.Cells {
		for _, kind := range []string{"cpu", "heap"} {
			path := filepath.Join(dir, c.App+"_"+c.System+"_n1."+kind+".pprof")
			st, err := os.Stat(path)
			if err != nil {
				t.Errorf("missing %s profile: %v", kind, err)
				continue
			}
			if st.Size() == 0 {
				t.Errorf("%s: empty %s profile", path, kind)
			}
		}
	}
}
