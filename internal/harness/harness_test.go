package harness_test

import (
	"strings"
	"testing"

	"visibility/internal/apps"
	"visibility/internal/apps/circuit"
	"visibility/internal/apps/pennant"
	"visibility/internal/apps/stencil"
	"visibility/internal/harness"
)

func run(t *testing.T, app apps.Builder, name, algorithm string, dcr bool, nodes int) *harness.Result {
	t.Helper()
	r, err := harness.Run(harness.Config{
		App: app, AppName: name, Algorithm: algorithm, DCR: dcr,
		Nodes: nodes, MeasureIters: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunProducesSaneNumbers(t *testing.T) {
	for _, tc := range []struct {
		name string
		app  apps.Builder
		unit string
	}{
		{"stencil", stencil.New, "points"},
		{"circuit", circuit.New, "wires"},
		{"pennant", pennant.New, "zones"},
	} {
		r := run(t, tc.app, tc.name, "raycast", true, 4)
		if r.InitTime <= 0 || r.IterTime <= 0 || r.ThroughputPerNode <= 0 {
			t.Errorf("%s: non-positive measurements: %+v", tc.name, r)
		}
		if r.UnitName != tc.unit {
			t.Errorf("%s: unit = %q, want %q", tc.name, r.UnitName, tc.unit)
		}
		if r.Launches == 0 || r.Stats.Launches == 0 {
			t.Errorf("%s: no launches recorded", tc.name)
		}
		if r.System != "raycast_dcr" {
			t.Errorf("%s: system = %q", tc.name, r.System)
		}
	}
}

func TestUnknownAlgorithmFails(t *testing.T) {
	_, err := harness.Run(harness.Config{App: stencil.New, AppName: "stencil", Algorithm: "zbuffer", Nodes: 1})
	if err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
	_, err = harness.Run(harness.Config{App: stencil.New, AppName: "stencil", Algorithm: "raycast", Nodes: 0})
	if err == nil {
		t.Fatal("expected error for zero nodes")
	}
	_, err = harness.Run(harness.Config{App: stencil.New, AppName: "stencil", Algorithm: "raycast", Nodes: 1, MeasureIters: -1})
	if err == nil {
		t.Fatal("expected error for negative iterations")
	}
}

// TestPaperShapesSmall asserts the headline qualitative results of §8 at a
// small scale: with DCR, ray casting beats Warnock's algorithm on
// initialization; without DCR, the painter's algorithm has the worst
// steady-state throughput at scale.
func TestPaperShapesSmall(t *testing.T) {
	nodes := 32
	rcInit := run(t, circuit.New, "circuit", "raycast", true, nodes).InitTime
	waInit := run(t, circuit.New, "circuit", "warnock", true, nodes).InitTime
	if rcInit >= waInit {
		t.Errorf("raycast init (%v) should beat warnock init (%v) at %d nodes", rcInit, waInit, nodes)
	}

	nodes = 128
	rc := run(t, circuit.New, "circuit", "raycast", false, nodes).ThroughputPerNode
	pa := run(t, circuit.New, "circuit", "paint", false, nodes).ThroughputPerNode
	if pa >= rc {
		t.Errorf("painter throughput (%v) should trail raycast (%v) at %d nodes", pa, rc, nodes)
	}

	// DCR must help ray casting at scale.
	dcr := run(t, circuit.New, "circuit", "raycast", true, nodes).ThroughputPerNode
	if dcr <= rc {
		t.Errorf("DCR throughput (%v) should beat no-DCR (%v)", dcr, rc)
	}
}

func TestDeterminism(t *testing.T) {
	a := run(t, circuit.New, "circuit", "warnock", true, 8)
	b := run(t, circuit.New, "circuit", "warnock", true, 8)
	if a.InitTime != b.InitTime || a.IterTime != b.IterTime {
		t.Errorf("simulation is not deterministic: %+v vs %+v", a, b)
	}
}

func TestSweepAndFormats(t *testing.T) {
	results, err := harness.Sweep(harness.Config{App: stencil.New, AppName: "stencil", MeasureIters: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 5 configurations × 3 node counts (1, 2, 4).
	if len(results) != 15 {
		t.Fatalf("sweep produced %d results, want 15", len(results))
	}

	var tsv strings.Builder
	if err := harness.WriteTSV(&tsv, results, 2); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(tsv.String()), "\n")
	if len(lines) != 1+15*2 {
		t.Errorf("TSV rows = %d, want %d", len(lines), 1+30)
	}
	if !strings.HasPrefix(lines[0], "system\tnodes\tprocs_per_node\trep\tinit_time\telapsed_time") {
		t.Errorf("TSV header wrong: %q", lines[0])
	}
	if !strings.Contains(tsv.String(), "raycast_dcr\t2\t1\t1\t") {
		t.Error("TSV missing expected row")
	}

	var fig strings.Builder
	if err := harness.WriteFigure(&fig, results, "weak"); err != nil {
		t.Fatal(err)
	}
	out := fig.String()
	for _, want := range []string{"throughput per node (points/s)", "raycast,dcr", "paint,nodcr"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure output missing %q:\n%s", want, out)
		}
	}
	var figInit strings.Builder
	if err := harness.WriteFigure(&figInit, results, "init"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(figInit.String(), "init time (s)") {
		t.Error("init figure missing label")
	}

	// One metrics cell per result.
	var js strings.Builder
	if err := harness.WriteMetricsJSON(&js, results); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(js.String(), `"system"`); got != len(results) {
		t.Errorf("metrics JSON has %d cells, want %d", got, len(results))
	}
}

// TestAppTable checks the one table of applications: it holds the three
// paper figures in figure order, and an unknown name lists the table
// sorted.
func TestAppTable(t *testing.T) {
	var all []string
	for _, a := range harness.Apps {
		all = append(all, a.Name)
	}
	if got := strings.Join(all, " "); got != "stencil circuit pennant" {
		t.Errorf("app table holds %q", got)
	}
	a, err := harness.FindApp("pennant")
	if err != nil || a.Init != "Figure 14" || a.Weak != "Figure 17" || a.Build(1).UnitName != "zones" {
		t.Errorf("FindApp(pennant) = %+v, %v", a, err)
	}
	_, err = harness.FindApp("zmachine")
	want := `unknown app "zmachine" (have [circuit pennant stencil])`
	if err == nil || err.Error() != want {
		t.Errorf("FindApp(zmachine) error = %v, want %s", err, want)
	}
}

func TestNodeSweep(t *testing.T) {
	got := harness.NodeSweep(512)
	want := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	if len(got) != len(want) {
		t.Fatalf("NodeSweep = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NodeSweep = %v", got)
		}
	}
}

func TestSystemName(t *testing.T) {
	if harness.SystemName("raycast", true) != "raycast_dcr" {
		t.Error("dcr name wrong")
	}
	if harness.SystemName("paint", false) != "paint_nodcr" {
		t.Error("nodcr name wrong")
	}
}

// TestAutoTraceRecoversThroughput checks that the automatic tracer —
// given no brackets at all — finds the iteration structure on its own and
// recovers the steady-state regime. At 256 nodes circuit's loop is 768
// launches (3 per node), so the detector must search periods past 512.
func TestAutoTraceRecoversThroughput(t *testing.T) {
	nodes := 256
	untraced := run(t, circuit.New, "circuit", "raycast", false, nodes)
	auto, err := harness.Run(harness.Config{
		App: circuit.New, AppName: "circuit", Algorithm: "raycast",
		DCR: false, Nodes: nodes, MeasureIters: 2, AutoTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if auto.System != "raycast_nodcr_auto" {
		t.Errorf("system = %q", auto.System)
	}
	if auto.Metrics["autotrace/candidates"] == 0 {
		t.Fatalf("no candidate detected: %v", auto.Metrics)
	}
	if auto.Metrics["trace/replayed"] == 0 {
		t.Fatal("no launches replayed in the timed window")
	}
	if auto.Metrics["trace/invalidations"] != 0 {
		t.Errorf("unexpected invalidations: %d", auto.Metrics["trace/invalidations"])
	}
	if auto.ThroughputPerNode < 2*untraced.ThroughputPerNode {
		t.Errorf("autotracing should at least double no-DCR throughput at %d nodes: auto=%v untraced=%v",
			nodes, auto.ThroughputPerNode, untraced.ThroughputPerNode)
	}
}

// TestPennantWeakScalingFlat pins pennant's Figure 17 shape: with the
// global timestep folded through futures, raycast+DCR throughput at 256
// nodes stays within 10% of its 1-node value, as the paper's curve does.
func TestPennantWeakScalingFlat(t *testing.T) {
	one := run(t, pennant.New, "pennant", "raycast", true, 1).ThroughputPerNode
	at256 := run(t, pennant.New, "pennant", "raycast", true, 256).ThroughputPerNode
	if at256 < 0.9*one {
		t.Errorf("pennant raycast_dcr throughput at 256 nodes = %.4g, %.3f of its 1-node %.4g; want >= 0.9",
			at256, at256/one, one)
	}
}

func TestUtilizationMetrics(t *testing.T) {
	r := run(t, circuit.New, "circuit", "raycast", true, 8)
	if r.ExecUtilization <= 0 || r.ExecUtilization > 1 {
		t.Errorf("ExecUtilization = %v", r.ExecUtilization)
	}
	if r.UtilUtilization <= 0 || r.UtilUtilization > 1 {
		t.Errorf("UtilUtilization = %v", r.UtilUtilization)
	}
	// Kernel work dominates analysis for raycast+DCR.
	if r.ExecUtilization < r.UtilUtilization {
		t.Errorf("expected exec-bound run: exec=%v util=%v", r.ExecUtilization, r.UtilUtilization)
	}
}
