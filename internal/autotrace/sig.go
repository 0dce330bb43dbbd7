// Package autotrace memoizes the dependence and coherence analysis of
// repeating launch sequences, found online: dynamic tracing after Lee et
// al., "Dynamic Tracing: Memoization of Task Graphs for Dynamic Task-Based
// Runtimes" (SC'18), with the trace boundaries placed automatically after
// Yadav et al., "Automatic Tracing in Task-Based Runtime Systems". The
// paper's evaluation (§8) disables Legion's tracing to isolate the
// coherence algorithms; this package brings it back as the `_auto`
// ablation, so that the claim — tracing removes the per-launch analysis
// cost in steady state — can itself be measured.
//
// The application launches tasks with no trace annotations at all. An
// Auto hashes every launch, commits a repeating pattern once the stream
// ends in two copies of it, records two instances' analysis results and,
// when the second repeats the first shifted by one period, replays it for
// later instances with task IDs shifted by the distance from the
// recording, without consulting the wrapped analyzer; any mismatch falls
// back to direct analysis. The exact structural check and the comparison
// of the two recordings are the correctness backstop: a hash collision in
// the detector can at worst abort an instance, never produce a wrong
// analysis result.
package autotrace

import (
	"visibility/internal/core"
)

// FNV-1a 64-bit parameters, shared with the fault plane's site seeding.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Signature hashes one launch's structure: kernel name, region
// requirements (region identity, field, privilege including the
// reduction operator), and future `after` edges as offsets relative to
// the launching task — structure only, never data values. Launches that
// are structurally identical hash equal at every stream offset, which is
// what lets the detector compare instances across the window; the
// relative future-dep encoding is what keeps a loop that chains each
// iteration to the previous one offset-invariant.
func Signature(t *core.Task) uint64 {
	h := uint64(fnvOffset)
	h = hashString(h, t.Name)
	h = hashWord(h, uint64(len(t.Reqs)))
	for _, r := range t.Reqs {
		h = hashWord(h, uint64(int64(r.Region.ID)))
		h = hashWord(h, uint64(int64(r.Field)))
		h = hashWord(h, uint64(int64(r.Priv.Kind)))
		h = hashWord(h, uint64(int64(r.Priv.Op)))
	}
	h = hashWord(h, uint64(len(t.FutureDeps)))
	for _, d := range t.FutureDeps {
		h = hashWord(h, uint64(int64(t.ID-d)))
	}
	return h
}

// hashString folds a length-prefixed string into the running FNV-1a
// state; the prefix keeps ("ab","c") distinct from ("a","bc") when
// adjacent fields are both strings.
func hashString(h uint64, s string) uint64 {
	h = hashWord(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// hashWord folds one 64-bit word into the running FNV-1a state, a byte
// at a time in little-endian order.
func hashWord(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= w & 0xff
		h *= fnvPrime
		w >>= 8
	}
	return h
}
