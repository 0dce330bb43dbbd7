package harness_test

import (
	"fmt"
	"testing"

	"visibility/internal/harness"
)

// The deviations from the paper that EXPERIMENTS.md lists ("Summary of
// deviations"), pinned at 128 nodes, the smallest machine in
// results/figures_512.txt where all three show. Each test names the
// relation, not the digits: CI's cmp of that file holds the digits. A
// change that means to move a deviation (a refit cost model) updates the
// test and EXPERIMENTS.md together.

const deviationNodes = 128

// deviationCells memoizes the n=128 cells the three tests share.
var deviationCells = map[string]*harness.Result{}

// deviationCell runs app under one configuration at deviationNodes with
// visbench's default three timed iterations, so its numbers are the
// figure file's.
func deviationCell(t *testing.T, app, algorithm string, dcr bool) *harness.Result {
	t.Helper()
	key := fmt.Sprintf("%s/%s", app, harness.SystemName(algorithm, dcr))
	if r, ok := deviationCells[key]; ok {
		return r
	}
	a, err := harness.FindApp(app)
	if err != nil {
		t.Fatal(err)
	}
	r, err := harness.Run(harness.Config{
		App: a.Build, AppName: app, Algorithm: algorithm, DCR: dcr,
		Nodes: deviationNodes, MeasureIters: 3,
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
// (0.0464 s against 0.0329 s); the paper has the two close, no-DCR
// slightly worse.
func TestDeviation2PennantWarnockDCRInit(t *testing.T) {
	dcr := deviationCell(t, "pennant", "warnock", true).InitTime
	nodcr := deviationCell(t, "pennant", "warnock", false).InitTime
	if dcr <= nodcr {
		t.Errorf("pennant: warnock_dcr init %.4g s no longer exceeds warnock_nodcr %.4g s at %d nodes",
			dcr, nodcr, deviationNodes)
	}
}

// TestDeviation3CircuitWarnockNoDCRAhead pins deviation #3: on circuit
// without DCR, Warnock's steady-state throughput is ahead of ray casting's
// by less than 8% (1.959e6 against 1.884e6 wires/s/node); the paper has
// ray casting marginally ahead.
func TestDeviation3CircuitWarnockNoDCRAhead(t *testing.T) {
	warnock := deviationCell(t, "circuit", "warnock", false).ThroughputPerNode
	raycast := deviationCell(t, "circuit", "raycast", false).ThroughputPerNode
	if ratio := warnock / raycast; ratio <= 1 || ratio >= 1.08 {
		t.Errorf("circuit: warnock_nodcr/raycast_nodcr throughput = %.4g/%.4g = %.4f at %d nodes, want in (1, 1.08)",
			warnock, raycast, ratio, deviationNodes)
	}
}
