package obs

import (
	"runtime"
	"sort"
)

// SpanDurations extracts the durations (End-Start, in the buffer's clock
// units) of the spans in the given category, in recording order.
func SpanDurations(spans []Span, cat string) []int64 {
	var out []int64
	for _, s := range spans {
		if s.Cat == cat {
			out = append(out, s.End-s.Start)
		}
	}
	return out
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
