// Package algo is the registry of the paper's three coherence algorithms,
// mapping "paint", "warnock" and "raycast" to constructors. The naive
// painter, the oracle, is not registered: paint.NewNaive builds it.
package algo

import (
	"fmt"
	"sort"

	"visibility/internal/core"
	"visibility/internal/paint"
	"visibility/internal/raycast"
	"visibility/internal/region"
	"visibility/internal/warnock"
)

// New is the constructor shape shared by all algorithms.
type New = core.NewAnalyzerFunc

var registry = map[string]New{
	"paint":   func(t *region.Tree, o core.Options) core.Analyzer { return paint.NewPainter(t, o) },
	"warnock": func(t *region.Tree, o core.Options) core.Analyzer { return warnock.New(t, o) },
	"raycast": func(t *region.Tree, o core.Options) core.Analyzer { return raycast.New(t, o) },
}

// Lookup returns the constructor for name.
func Lookup(name string) (New, error) {
	n, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("algo: unknown algorithm %q (have %v)", name, Names())
	}
	return n, nil
}

// Names returns the registered algorithm names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
