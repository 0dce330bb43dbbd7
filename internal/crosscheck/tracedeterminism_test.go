package crosscheck

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"visibility/internal/apps/circuit"
	"visibility/internal/harness"
	"visibility/internal/obs"
)

// runTraced executes one full harness cell with trace export enabled and
// returns the exported Chrome trace-event JSON and the metrics snapshot.
func runTraced(t *testing.T) ([]byte, map[string]int64) {
	t.Helper()
	tw := obs.NewTraceWriter()
	res, err := harness.Run(harness.Config{
		App: circuit.New, AppName: "circuit",
		Algorithm: "raycast", DCR: true,
		Nodes: 4, MeasureIters: 2,
		TraceOut: tw,
	})
	if err != nil {
		t.Fatalf("harness.Run: %v", err)
	}
	var buf bytes.Buffer
	if err := tw.Write(&buf); err != nil {
		t.Fatalf("writing trace: %v", err)
	}
	return buf.Bytes(), res.Metrics
}

// TestTraceExportDeterministic asserts that two identical harness runs
// export byte-identical virtual-time traces and identical metrics
// snapshots: the export contains only simulated-clock events, so nothing
// about the host (wall-clock jitter, goroutine interleaving) may leak in.
func TestTraceExportDeterministic(t *testing.T) {
	trace1, metrics1 := runTraced(t)
	trace2, metrics2 := runTraced(t)

	if !bytes.Equal(trace1, trace2) {
		t.Errorf("identical runs exported different traces (%d vs %d bytes)", len(trace1), len(trace2))
	}
	if !reflect.DeepEqual(metrics1, metrics2) {
		t.Errorf("identical runs produced different metrics snapshots:\n%v\nvs\n%v", metrics1, metrics2)
	}

	// The export must be loadable trace-event JSON with per-node tracks.
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace1, &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	pids := make(map[int]bool)
	flows := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			pids[e.Pid] = true
		}
		if e.Ph == "s" {
			flows++
		}
	}
	if len(pids) != 4 {
		t.Errorf("expected duration events on 4 node tracks, got pids %v", pids)
	}
	if flows == 0 {
		t.Errorf("expected cross-node message flow events, got none")
	}
}
