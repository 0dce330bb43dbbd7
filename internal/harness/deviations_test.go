package harness_test

import (
	"fmt"
	"testing"

	"visibility/internal/harness"
)

// The deviations from the paper that EXPERIMENTS.md lists ("Summary of
// deviations"), pinned at 128 nodes, the smallest machine in
// results/figures_512.txt where both show, and the closed deviation #3
// pinned over 128–512 nodes. Each test names the relation, not the
// digits: CI's cmp of that file holds the digits. A change that means to
// move a deviation (a refit cost model) updates the test and
// EXPERIMENTS.md together.

const deviationNodes = 128

// deviationCells memoizes the cells the tests share.
var deviationCells = map[string]*harness.Result{}

// deviationCell runs app under one configuration at deviationNodes.
func deviationCell(t *testing.T, app, algorithm string, dcr bool) *harness.Result {
	t.Helper()
	return figureCell(t, app, algorithm, dcr, deviationNodes)
}

// figureCell runs app under one configuration at nodes with visbench's
// default three timed iterations, so its numbers are the figure file's.
func figureCell(t *testing.T, app, algorithm string, dcr bool, nodes int) *harness.Result {
	t.Helper()
	key := fmt.Sprintf("%s/%s/%d", app, harness.SystemName(algorithm, dcr), nodes)
	if r, ok := deviationCells[key]; ok {
		return r
	}
	a, err := harness.FindApp(app)
	if err != nil {
		t.Fatal(err)
	}
	r, err := harness.Run(harness.Config{
		App: a.Build, AppName: app, Algorithm: algorithm, DCR: dcr,
		Nodes: nodes, MeasureIters: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	deviationCells[key] = r
	return r
}

// TestDeviation1PainterInitAboveWarnock pins deviation #1: the painter's
// initialization time exceeds both Warnock configurations' on every
// application (circuit: 0.2396 s against 0.0731 s without DCR and 0.0422 s
// with it); the paper has Warnock the worst.
func TestDeviation1PainterInitAboveWarnock(t *testing.T) {
	for _, app := range []string{"stencil", "circuit", "pennant"} {
		paint := deviationCell(t, app, "paint", false).InitTime
		for _, dcr := range []bool{true, false} {
			warnock := deviationCell(t, app, "warnock", dcr)
			if paint <= warnock.InitTime {
				t.Errorf("%s: paint_nodcr init %.4g s no longer exceeds %s init %.4g s at %d nodes",
					app, paint, warnock.System, warnock.InitTime, deviationNodes)
			}
		}
	}
}

// TestDeviation2PennantWarnockDCRInit pins deviation #2: on pennant,
// Warnock's initialization with DCR exceeds its initialization without
// (0.0452 s against 0.0309 s); the paper has the two close, no-DCR
// slightly worse.
func TestDeviation2PennantWarnockDCRInit(t *testing.T) {
	dcr := deviationCell(t, "pennant", "warnock", true).InitTime
	nodcr := deviationCell(t, "pennant", "warnock", false).InitTime
	if dcr <= nodcr {
		t.Errorf("pennant: warnock_dcr init %.4g s no longer exceeds warnock_nodcr %.4g s at %d nodes",
			dcr, nodcr, deviationNodes)
	}
}

// TestRaycastNoDCRAtLeastWarnockOnCircuit pins the paper's ordering that
// deviation #3 broke: on circuit without DCR, ray casting's steady-state
// throughput is at or above Warnock's at 128–512 nodes (at 128: 2.399e6
// against 1.959e6 wires/s/node). Warnock was ahead by less than 8% while
// ray casting's ghost reads cut the sets its writes had coalesced.
func TestRaycastNoDCRAtLeastWarnockOnCircuit(t *testing.T) {
	for _, nodes := range []int{128, 256, 512} {
		warnock := figureCell(t, "circuit", "warnock", false, nodes).ThroughputPerNode
		raycast := figureCell(t, "circuit", "raycast", false, nodes).ThroughputPerNode
		if raycast < warnock {
			t.Errorf("circuit: raycast_nodcr throughput %.4g is below warnock_nodcr's %.4g at %d nodes",
				raycast, warnock, nodes)
		}
	}
}
