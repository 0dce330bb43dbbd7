package obs

import (
	"runtime"
	"sort"
)

// SpanDurations extracts the durations (End-Start, in the buffer's clock
// units) of the outermost spans in the given category, in recording
// order: a span nested inside another span of cat is a phase of it, not
// a sample of its own. An empty cat matches every span.
func SpanDurations(spans []Span, cat string) []int64 {
	var in []Span
	for _, s := range spans {
		if cat == "" || s.Cat == cat {
			in = append(in, s)
		}
	}
	var out []int64
	for i, p := range Nesting(in) {
		if p < 0 {
			out = append(out, in[i].End-in[i].Start)
		}
	}
	return out
}

// Nesting returns, for each span, the index of the innermost other span
// whose interval contains it, or -1 for an outermost span. It assumes the
// spans come from properly nested Begin/End pairs, as one goroutine's
// phases do. Spans are recorded when they end, so of two spans with the
// same interval the later-recorded one is the outer.
func Nesting(spans []Span) []int {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	// Outer before inner: earlier start, then later end, then later
	// recording.
	sort.Slice(order, func(a, b int) bool {
		x, y := spans[order[a]], spans[order[b]]
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		if x.End != y.End {
			return x.End > y.End
		}
		return order[a] > order[b]
	})
	parent := make([]int, len(spans))
	var open []int // enclosing spans, outermost first
	for _, i := range order {
		for len(open) > 0 && spans[open[len(open)-1]].End < spans[i].End {
			open = open[:len(open)-1]
		}
		parent[i] = -1
		if len(open) > 0 {
			parent[i] = open[len(open)-1]
		}
		open = append(open, i)
	}
	return parent
}

// Quantiles returns the exact nearest-rank q-quantiles of values, one per
// requested q, sorting a copy of the input. Unlike Histogram.Quantile
// these are exact — benchmark records use them on the bounded span ring,
// where the raw samples are still in hand. Empty input yields all zeros;
// q outside (0,1] clamps to the nearest valid rank.
func Quantiles(values []int64, qs ...float64) []int64 {
	out := make([]int64, len(qs))
	if len(values) == 0 {
		return out
	}
	sorted := append([]int64(nil), values...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, q := range qs {
		rank := int(float64(len(sorted)) * q)
		if rank >= len(sorted) {
			rank = len(sorted) - 1
		}
		if rank < 0 {
			rank = 0
		}
		out[i] = sorted[rank]
	}
	return out
}

// AllocSnapshot is a point-in-time sample of the runtime's cumulative
// allocation counters, taken with runtime.ReadMemStats. Two snapshots
// bracketing a run yield allocs/op and bytes/op for the benchmark record;
// the counters are process-global, so measured runs must not share the
// process with concurrent allocating work.
type AllocSnapshot struct {
	Mallocs    uint64
	TotalAlloc uint64
}

// ReadAllocs samples the cumulative allocation counters now.
func ReadAllocs() AllocSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return AllocSnapshot{Mallocs: ms.Mallocs, TotalAlloc: ms.TotalAlloc}
}

// Since returns the allocation count and byte deltas from prev to a.
func (a AllocSnapshot) Since(prev AllocSnapshot) (allocs, bytes int64) {
	return int64(a.Mallocs - prev.Mallocs), int64(a.TotalAlloc - prev.TotalAlloc)
}
