// Package bench defines the pinned VISBENCH1 benchmark-record schema —
// the repo's performance trajectory format — and the collector that
// fills it. A record holds one measurement cell per app × system
// configuration × machine size: wall-clock launch-admission throughput,
// allocations per launch (runtime.ReadMemStats deltas around the
// analysis loop), exact p50/p95/p99 per-launch analysis latency from the
// span ring, and the paper's virtual-time metrics (init time,
// per-iteration time, weak-scaling throughput), plus run metadata (go
// version, GOMAXPROCS, commit, repetition count).
//
// Records are committed at the repo root as BENCH_<n>.json, one per
// optimization PR, and compared with cmd/benchdiff: the schema pins
// field names and ordering, Encode sorts cells canonically, and
// re-encoding a decoded record is byte-identical, so records diff
// cleanly under plain text tools and the regression gate never trips on
// formatting noise.
package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Schema is the pinned record-format identifier. Any change to the field
// set or semantics of Record requires a new schema string; decoders
// reject records they do not understand rather than misreading them.
const Schema = "VISBENCH1"

// Meta describes how a record was produced. Commit identifies the code;
// the runtime fields identify the machine environment, which wall-clock
// cells are only comparable within.
type Meta struct {
	Schema     string   `json:"schema"`
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Reps       int      `json:"reps"`
	Iters      int      `json:"iters"`
	MaxNodes   int      `json:"max_nodes"`
	Apps       []string `json:"apps"`
}

// Cell is one measured experiment cell, min-of-reps aggregated. The
// virtual-time fields (init/iter/throughput) are deterministic replays
// of the paper's metrics and comparable across machines; the wall-clock
// fields (launches/sec, allocs, latency quantiles) measure this
// implementation's real analysis cost on the recording machine.
type Cell struct {
	App      string `json:"app"`
	System   string `json:"system"` // e.g. "raycast_dcr", artifact naming
	Nodes    int    `json:"nodes"`
	Launches int    `json:"launches"`

	WallSeconds    float64 `json:"wall_s"`
	LaunchesPerSec float64 `json:"launches_per_sec"`

	InitTime          float64 `json:"init_time_s"` // virtual, Figures 12-14
	IterTime          float64 `json:"iter_time_s"` // virtual, per steady iteration
	ThroughputPerNode float64 `json:"throughput_per_node"`

	AllocsPerLaunch float64 `json:"allocs_per_launch"`
	BytesPerLaunch  float64 `json:"bytes_per_launch"`

	AnalysisP50Ns int64 `json:"analysis_p50_ns"`
	AnalysisP95Ns int64 `json:"analysis_p95_ns"`
	AnalysisP99Ns int64 `json:"analysis_p99_ns"`
}

// Key identifies the cell for cross-record matching.
func (c Cell) Key() string {
	return fmt.Sprintf("%s/%s/n%d", c.App, c.System, c.Nodes)
}

// Record is one point on the benchmark trajectory.
type Record struct {
	Meta  Meta   `json:"meta"`
	Cells []Cell `json:"cells"`
}

// Sort orders cells canonically (app, system, nodes) so that encoded
// records are deterministic regardless of collection order.
func (r *Record) Sort() {
	sort.Slice(r.Cells, func(i, j int) bool {
		a, b := r.Cells[i], r.Cells[j]
		if a.App != b.App {
			return a.App < b.App
		}
		if a.System != b.System {
			return a.System < b.System
		}
		return a.Nodes < b.Nodes
	})
}

// AggregateLaunchesPerSec is the record-wide launch-admission rate:
// total launches over total wall time across all cells. It is the
// one-number summary dashboards show for trajectory drift.
func (r *Record) AggregateLaunchesPerSec() float64 {
	var launches, wall float64
	for _, c := range r.Cells {
		launches += float64(c.Launches)
		wall += c.WallSeconds
	}
	if wall <= 0 {
		return 0
	}
	return launches / wall
}

// Encode writes the record as indented JSON with a trailing newline.
// Cells are sorted canonically first and struct fields marshal in
// declaration order, so equal records always produce identical bytes.
func (r *Record) Encode(w io.Writer) error {
	if r.Meta.Schema == "" {
		r.Meta.Schema = Schema
	}
	if r.Meta.Schema != Schema {
		return fmt.Errorf("bench: cannot encode schema %q (this build writes %s)", r.Meta.Schema, Schema)
	}
	r.Sort()
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Decode reads a record, rejecting unknown fields and unknown schema
// versions: a record from a future schema fails loudly instead of being
// silently misread as VISBENCH1.
func Decode(rd io.Reader) (*Record, error) {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	var r Record
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("bench: decoding record: %w", err)
	}
	if r.Meta.Schema != Schema {
		return nil, fmt.Errorf("bench: unsupported schema %q (want %s)", r.Meta.Schema, Schema)
	}
	return &r, nil
}

// ReadFile decodes the record at path.
func ReadFile(path string) (*Record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := Decode(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// WriteFile encodes the record to path.
func WriteFile(path string, r *Record) error {
	var buf bytes.Buffer
	if err := r.Encode(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
