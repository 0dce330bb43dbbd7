package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	vs := []float64{50, 10, 40, 20, 30} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0.2, 10}, {0.21, 20}, {0.5, 30}, {0.75, 40}, {0.95, 50}, {1, 50}, {0, 10}, {1.5, 50},
	} {
		if got := quantile(vs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
	if vs[0] != 50 {
		t.Error("quantile reordered its input")
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
	q1, q3 := quartiles([]float64{8, 1, 7, 2, 6, 3, 5, 4})
	if q1 != 2 || q3 != 6 {
		t.Errorf("quartiles = %v, %v, want 2, 6", q1, q3)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1000, 0.95},         // 50 beyond
		{200, 0.95},          // exactly 10 beyond
		{199, 189.0 / 199.0}, // 9 beyond p95: step down to leave 10
		{40, 0.75},           // 30 of 40
		{20, 0.5},            // no tail worth the name: median
		{3, 0.5},
	} {
		got := tailPercentile(c.n, 0.95)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if c.n > 2*tailBeyond {
			if beyond := c.n - int(math.Ceil(got*float64(c.n))); beyond < tailBeyond {
				t.Errorf("tailPercentile(%d) = %v leaves %d samples beyond, want >= %d", c.n, got, beyond, tailBeyond)
			}
		}
	}
}
