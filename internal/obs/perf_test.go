package obs

import (
	"testing"
)

func TestSpanDurations(t *testing.T) {
	spans := []Span{
		{Name: "a.analyze", Cat: "analysis", Start: 10, End: 40},
		{Name: "http", Cat: "server", Start: 0, End: 100},
		{Name: "a.analyze", Cat: "analysis", Start: 50, End: 55},
	}
	got := SpanDurations(spans, "analysis")
	if len(got) != 2 || got[0] != 30 || got[1] != 5 {
		t.Errorf("SpanDurations(analysis) = %v, want [30 5]", got)
	}
	if none := SpanDurations(nil, "analysis"); len(none) != 0 {
		t.Errorf("SpanDurations(nil) = %v, want empty", none)
	}
}

func TestQuantiles(t *testing.T) {
	// 1..100 shuffled deterministically; exact nearest-rank answers.
	var vals []int64
	for i := 0; i < 100; i++ {
		vals = append(vals, int64((i*37)%100)+1)
	}
	qs := Quantiles(vals, 0.50, 0.95, 0.99)
	if qs[0] != 51 || qs[1] != 96 || qs[2] != 100 {
		t.Errorf("Quantiles = %v, want [51 96 100]", qs)
	}
	// The input must not be reordered.
	if vals[0] != 1 || vals[1] != 38 {
		t.Errorf("Quantiles mutated its input: %v...", vals[:2])
	}
	if qs := Quantiles(nil, 0.5, 0.99); qs[0] != 0 || qs[1] != 0 {
		t.Errorf("Quantiles(nil) = %v, want zeros", qs)
	}
	if qs := Quantiles([]int64{42}, 0, 0.5, 1, 2); qs[0] != 42 || qs[3] != 42 {
		t.Errorf("out-of-range q did not clamp: %v", qs)
	}
}

func TestReadAllocsSince(t *testing.T) {
	before := ReadAllocs()
	sink := make([][]byte, 0, 100)
	for i := 0; i < 100; i++ {
		sink = append(sink, make([]byte, 1024))
	}
	allocs, bytes := ReadAllocs().Since(before)
	if allocs < 100 {
		t.Errorf("allocs delta = %d, want >= 100", allocs)
	}
	if bytes < 100*1024 {
		t.Errorf("bytes delta = %d, want >= %d", bytes, 100*1024)
	}
	_ = sink
}
