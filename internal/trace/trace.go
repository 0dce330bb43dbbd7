// Package trace is a stand-in for the retired manually bracketed tracer:
// New hands back the inner analyzer, and Begin and End do nothing. Record
// and replay live in internal/autotrace, which places its own instances.
package trace

import "visibility/internal/core"

// Tracer is the analyzer New wrapped, with the old layer's brackets.
//
// Deprecated: kept while benchmarks/visperf still calls it.
type Tracer struct{ core.Analyzer }

// New returns an wrapped; opts is ignored.
//
// Deprecated: kept while benchmarks/visperf still calls it.
func New(an core.Analyzer, opts core.Options) *Tracer { return &Tracer{an} }

// Begin does nothing.
//
// Deprecated: kept while benchmarks/visperf still calls it.
func (*Tracer) Begin(id int) {}

// End does nothing.
//
// Deprecated: kept while benchmarks/visperf still calls it.
func (*Tracer) End() {}
