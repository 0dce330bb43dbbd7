package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// driverLine is the JSON object a run prints last for each workload.
type driverLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func jsonLines(t *testing.T, out string) []driverLine {
	t.Helper()
	var lines []driverLine
	for _, l := range strings.Split(out, "\n") {
		if !strings.HasPrefix(l, "{") {
			continue
		}
		var d driverLine
		dec := json.NewDecoder(strings.NewReader(l))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&d); err != nil {
			t.Fatalf("bad result line %q: %v", l, err)
		}
		lines = append(lines, d)
	}
	return lines
}

// TestSmoke runs all four workloads through both paths at the smoke sizes,
// untraced and traced, with the output checks on, and holds the printed
// metrics to the names and units BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, mode := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd()}, {"1", perLayer()}} {
		var out, errb bytes.Buffer
		if code := run([]string{"-smoke", "-trace", mode.trace, "-trace-dir", dir}, &out, &errb); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s%s", mode.trace, code, out.String(), errb.String())
		}
		lines := jsonLines(t, out.String())
		if len(lines) != 4 {
			t.Fatalf("trace %s: %d result lines, want 4", mode.trace, len(lines))
		}
		for i, d := range lines {
			if !d.Correct || d.Failed != 0 || d.Attempted < 1 {
				t.Errorf("trace %s workload %d: correct=%v attempted=%d failed=%d", mode.trace, i, d.Correct, d.Attempted, d.Failed)
			}
			if len(d.Metrics) != len(mode.defs) {
				t.Errorf("trace %s workload %d: %d metrics, want %d", mode.trace, i, len(d.Metrics), len(mode.defs))
			}
			for _, def := range mode.defs {
				m, ok := d.Metrics[def.Name]
				if !ok || m.Unit != def.Unit {
					t.Errorf("trace %s workload %d: metric %s missing or unit %q, want %q", mode.trace, i, def.Name, m.Unit, def.Unit)
				}
				if mode.trace == "0" && m.Value <= 0 {
					t.Errorf("workload %d: end-to-end metric %s = %v, want > 0", i, def.Name, m.Value)
				}
			}
		}
	}
	// One Perfetto file per workload, each a trace-event document whose
	// step roots have children.
	for _, w := range workloads(1) {
		raw, err := os.ReadFile(filepath.Join(dir, w.name()+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Ph   string         `json:"ph"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: %v", w.name(), err)
		}
		steps, children := 0, 0
		for _, ev := range doc.TraceEvents {
			if ev.Ph != "X" {
				continue
			}
			if ev.Name == "step" {
				steps++
			} else if ev.Args["parent"] != nil {
				children++
			}
		}
		if steps == 0 || children < steps {
			t.Errorf("%s: %d step spans with %d child spans", w.name(), steps, children)
		}
	}
}

// TestChecksFire: with a deliberately wrong expectation — a dropped
// dependence on the harness path, a perturbed reference snapshot on the
// service path — the steps count as failed and the process exits non-zero,
// so failed_share is known to fire.
func TestChecksFire(t *testing.T) {
	for _, c := range []struct{ workload, inject string }{
		{"stencil", "dep"},
		{"serve_query", "snapshot"},
	} {
		var out, errb bytes.Buffer
		code := run([]string{"-smoke", "-workload", c.workload, "-inject", c.inject, "-trace-dir", t.TempDir()}, &out, &errb)
		if code == 0 {
			t.Errorf("%s with -inject %s: exit 0, want non-zero\n%s", c.workload, c.inject, out.String())
		}
		lines := jsonLines(t, out.String())
		if len(lines) != 1 || lines[0].Correct || lines[0].Failed == 0 {
			t.Errorf("%s with -inject %s: result %+v, want correct=false and failed > 0", c.workload, c.inject, lines)
		}
		if !strings.Contains(out.String(), "FAILED:") {
			t.Errorf("%s with -inject %s: no FAILED line in the report", c.workload, c.inject)
		}
	}
}

// TestManifestMatchesFile keeps BENCHMARK.json equal to what the metric
// and workload tables generate.
func TestManifestMatchesFile(t *testing.T) {
	want, err := manifest(workloads(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale: regenerate with `bash benchmarks/run.sh -manifest > BENCHMARK.json`")
	}
}
