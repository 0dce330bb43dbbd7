package main

import (
	"math"
	"testing"
	"time"
)

func TestIndexIsOneAtNominal(t *testing.T) {
	nominal := machineState{nominalWideNs, nominalMemNs}
	if got := nominal.index(); math.Abs(got-1) > 1e-12 {
		t.Errorf("index of the nominal machine = %v, want 1", got)
	}
	slowCore := machineState{2 * nominalWideNs, nominalMemNs}
	slowMemory := machineState{nominalWideNs, 2 * nominalMemNs}
	if a, b := slowCore.index(), slowMemory.index(); !(1 < a && a < b && b < 2) {
		t.Errorf("a 2x slower wide kernel gives %v and a 2x slower memory kernel %v, want 1 < first < second < 2", a, b)
	}
}

func TestStateProbeReads(t *testing.T) {
	s := newStateProbe().read()
	if !(s.wide > 0 && s.mem > 0) {
		t.Errorf("read() = %+v, want positive kernel times", s)
	}
}

// TestNominalRescales: a leg measured on a machine running 25% slow reads,
// after the correction, as the nominal machine would have run it; legStats
// recovers the measured values through the leg's index.
func TestNominalRescales(t *testing.T) {
	leg := legResult{
		setup: 10 * time.Millisecond, steady: time.Second, launches: 1000,
		stepNs: []float64{1e6, 2e6, 3e6},
	}
	leg.nominal(1.25)
	if leg.setup != 8*time.Millisecond || leg.steady != 800*time.Millisecond || leg.stepNs[1] != 1.6e6 {
		t.Errorf("after nominal(1.25): setup %v steady %v steps %v", leg.setup, leg.steady, leg.stepNs)
	}
	legs := []legResult{leg}
	tput, p50, _ := legStats(legs, func(*legResult) float64 { return 1 })
	if math.Abs(tput.value-1250) > 1e-9 || math.Abs(p50.value-1.6) > 1e-9 {
		t.Errorf("corrected: %v launches/s, p50 %v ms, want 1250 and 1.6", tput.value, p50.value)
	}
	tput, p50, _ = legStats(legs, func(l *legResult) float64 { return l.index })
	if math.Abs(tput.value-1000) > 1e-9 || math.Abs(p50.value-2) > 1e-9 {
		t.Errorf("as measured: %v launches/s, p50 %v ms, want 1000 and 2", tput.value, p50.value)
	}
}
