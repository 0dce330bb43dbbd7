package algo

import (
	"fmt"

	"visibility/internal/autotrace"
	"visibility/internal/core"
	"visibility/internal/region"
	"visibility/internal/shard"
	"visibility/internal/trace"
)

// Spec describes one analysis stack: a registered algorithm, optionally
// fanned out by the shard layer, optionally memoized by a tracer. It is
// the only description of a stack — the runtime, the experiment harness
// and the service all check, build, name and tear down their analyzers
// through it.
type Spec struct {
	// Algorithm is a registry name; empty selects "raycast".
	Algorithm string
	// Tracing wraps the stack in a trace.Tracer driven by explicit
	// Begin/End brackets. Only visibility.Config.Tracing sets it, and it
	// names no configuration (Suffix).
	Tracing bool
	// AutoTrace wraps the stack in an autotrace.Auto, which finds the
	// brackets itself. Mutually exclusive with Tracing: explicit brackets
	// would fight the automatic ones.
	AutoTrace bool
	// Shards, when positive, runs the algorithm under the shard layer with
	// that many shards (1 is the layer's single-atom overhead baseline);
	// zero bypasses the layer. Only visibility.Config.Shards sets it.
	Shards int
}

// Check returns s with the default algorithm filled in, or the reason s
// does not describe a stack.
func (s Spec) Check() (Spec, error) {
	if s.Algorithm == "" {
		s.Algorithm = "raycast"
	}
	if _, err := Lookup(s.Algorithm); err != nil {
		return s, err
	}
	if s.Tracing && s.AutoTrace {
		return s, fmt.Errorf("algo: tracing and autotrace are mutually exclusive")
	}
	if s.Shards < 0 {
		return s, fmt.Errorf("algo: invalid shard count %d", s.Shards)
	}
	return s, nil
}

// Suffix is what the stack's autotracer adds to a configuration name:
// "_auto" ("raycast_dcr_auto").
func (s Spec) Suffix() string {
	if s.AutoTrace {
		return "_auto"
	}
	return ""
}

// Stack is a built analysis stack: the outermost analyzer to drive, plus a
// handle on each wrapper present (nil when absent).
type Stack struct {
	Analyzer core.Analyzer
	Tracer   *trace.Tracer
	Auto     *autotrace.Auto
	Shard    *shard.Analyzer
}

// Build assembles the stack over tree. The shard layer sits innermost and
// the trace layers wrap it, so a replayed launch skips the fan-out
// entirely. Build panics on a spec that Check rejects. The shard layer
// owns goroutines: Close the stack when done.
func (s Spec) Build(tree *region.Tree, opts core.Options) *Stack {
	s, err := s.Check()
	if err != nil {
		panic(err)
	}
	newAn, _ := Lookup(s.Algorithm)
	st := &Stack{}
	if s.Shards > 0 {
		st.Shard = shard.New(tree, opts, s.Shards, newAn)
		st.Analyzer = st.Shard
	} else {
		st.Analyzer = newAn(tree, opts)
	}
	switch {
	case s.Tracing:
		st.Tracer = trace.New(st.Analyzer, opts)
		st.Analyzer = st.Tracer
	case s.AutoTrace:
		st.Auto = autotrace.New(st.Analyzer, opts)
		st.Analyzer = st.Auto
	}
	return st
}

// Close releases the shard layer's goroutines. It is idempotent and safe
// on a nil stack; the analyzer must not be driven afterwards.
func (st *Stack) Close() {
	if st != nil && st.Shard != nil {
		st.Shard.Close()
	}
}

// TraceStats returns the tracing counters of whichever trace layer the
// stack has (zero when it has none, or st is nil).
func (st *Stack) TraceStats() trace.Stats {
	if st != nil && st.Auto != nil {
		return st.Auto.AutoStats().Trace
	}
	if st != nil && st.Tracer != nil {
		return st.Tracer.TraceStats()
	}
	return trace.Stats{}
}
