// Package shard is a stand-in for the retired in-process sharded
// analysis layer: New hands back the inner analyzer unchanged.
// Distributed analysis is modelled by internal/dist (paper §8).
package shard

import (
	"visibility/internal/core"
	"visibility/internal/region"
)

// Factory builds the analyzer New wraps.
//
// Deprecated: kept while benchmarks/visperf still calls it.
type Factory = core.NewAnalyzerFunc

// Analyzer is the analyzer New built, with the old layer's methods.
//
// Deprecated: kept while benchmarks/visperf still calls it.
type Analyzer struct{ core.Analyzer }

// New returns inner(tree, opts); shards is ignored.
//
// Deprecated: kept while benchmarks/visperf still calls it.
func New(tree *region.Tree, opts core.Options, shards int, inner Factory) *Analyzer {
	return &Analyzer{inner(tree, opts)}
}

// SetSerial does nothing.
//
// Deprecated: kept while benchmarks/visperf still calls it.
func (a *Analyzer) SetSerial(bool) {}

// Close does nothing.
//
// Deprecated: kept while benchmarks/visperf still calls it.
func (a *Analyzer) Close() {}
