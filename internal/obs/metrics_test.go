package obs

import (
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("a/count")
	c.Add(3)
	c.Inc()
	if got := c.Load(); got != 4 {
		t.Errorf("counter = %d, want 4", got)
	}
	g := r.NewGauge("a/gauge")
	g.Set(7)
	g.Set(-2)
	if got := g.Load(); got != -2 {
		t.Errorf("gauge = %d, want -2", got)
	}
	h := r.NewHistogram("a/hist", 10, 100)
	for _, v := range []int64{1, 10, 11, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 1122 {
		t.Errorf("histogram count=%d sum=%d, want 5/1122", h.Count(), h.Sum())
	}
	snap := r.Snapshot()
	want := Snapshot{
		"a/count": 4, "a/gauge": -2,
		"a/hist/le_10": 2, "a/hist/le_100": 2, "a/hist/le_inf": 1,
		"a/hist/count": 5, "a/hist/sum": 1122,
		// rank(p50)=3 lands halfway through (10,100]; p95/p99 land in the
		// overflow bucket and clamp to the last bound.
		"a/hist/p50": 55, "a/hist/p95": 100, "a/hist/p99": 100,
	}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("snapshot[%q] = %d, want %d", k, snap[k], v)
		}
	}
	if len(snap) != len(want) {
		t.Errorf("snapshot has %d entries, want %d: %v", len(snap), len(want), snap)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat", 100, 1000, 10000)
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %d, want 0", got)
	}
	// 90 fast observations, 9 mid, 1 slow.
	for i := 0; i < 90; i++ {
		h.Observe(50)
	}
	for i := 0; i < 9; i++ {
		h.Observe(500)
	}
	h.Observe(5000)
	// p50: rank 50 of 100 inside (0,100] → 50/90 of the way up.
	if got := h.Quantile(0.50); got != 56 {
		t.Errorf("p50 = %d, want 56", got)
	}
	// p95: rank 95 → 5th of 9 in (100,1000] → 100 + 5/9*900 = 600.
	if got := h.Quantile(0.95); got != 600 {
		t.Errorf("p95 = %d, want 600", got)
	}
	// p99: rank 99 → last of the mid bucket.
	if got := h.Quantile(0.99); got != 1000 {
		t.Errorf("p99 = %d, want 1000", got)
	}
	// p100: top edge of the last finite bucket.
	if got := h.Quantile(1.0); got != 10000 {
		t.Errorf("p100 = %d, want 10000", got)
	}

	// A boundless histogram has no edges to interpolate between, so
	// every quantile is 0 no matter what it observed.
	m := r.NewHistogram("boundless")
	m.Observe(10)
	m.Observe(30)
	if got := m.Quantile(0.5); got != 0 {
		t.Errorf("boundless p50 = %d, want 0", got)
	}
}

// TestHistogramQuantileEdgeCases pins the degenerate shapes: empty and
// single-bucket histograms must report 0 for every quantile — never NaN,
// never a panic — and out-of-range q clamps rather than misbehaving.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	r := NewRegistry()
	empty := r.NewHistogram("empty", 10, 100)
	emptyBoundless := r.NewHistogram("empty_boundless")
	single := r.NewHistogram("single_bucket") // only the overflow bucket
	single.Observe(7)
	overflowOnly := r.NewHistogram("overflow_only", 10)
	overflowOnly.Observe(50) // everything past the last bound
	one := r.NewHistogram("one_obs", 10)
	one.Observe(4)

	cases := []struct {
		name string
		h    *Histogram
		q    float64
		want int64
	}{
		{"empty p50", empty, 0.50, 0},
		{"empty p95", empty, 0.95, 0},
		{"empty p99", empty, 0.99, 0},
		{"empty boundless p50", emptyBoundless, 0.50, 0},
		{"single-bucket p50", single, 0.50, 0},
		{"single-bucket p95", single, 0.95, 0},
		{"single-bucket p99", single, 0.99, 0},
		{"all-overflow p50 clamps to last bound", overflowOnly, 0.50, 10},
		// One observation in (0,10]: interpolation puts every rank at the
		// bucket's top edge; out-of-range q clamps to a valid rank first.
		{"q=0 clamps to first rank", one, 0, 10},
		{"q>1 clamps to last rank", one, 2, 10},
	}
	for _, tc := range cases {
		if got := tc.h.Quantile(tc.q); got != tc.want {
			t.Errorf("%s: Quantile(%v) = %d, want %d", tc.name, tc.q, got, tc.want)
		}
	}
	// The snapshot path exercises the same quantiles; it must not panic
	// on degenerate histograms and must report their zeros.
	snap := r.Snapshot()
	for _, k := range []string{"empty/p50", "single_bucket/p99"} {
		if snap[k] != 0 {
			t.Errorf("snapshot[%q] = %d, want 0", k, snap[k])
		}
	}
}

func TestRegistrationIdempotentAndKindChecked(t *testing.T) {
	r := NewRegistry()
	if r.NewCounter("x") != r.NewCounter("x") {
		t.Error("NewCounter not idempotent")
	}
	defer func() {
		if recover() == nil {
			t.Error("registering a counter name as a gauge did not panic")
		}
	}()
	r.NewGauge("x")
}

func TestRegisterFunc(t *testing.T) {
	r := NewRegistry()
	v := int64(41)
	r.RegisterFunc("live", func() int64 { return v })
	v++
	if got := r.Snapshot()["live"]; got != 42 {
		t.Errorf("computed metric = %d, want 42", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate RegisterFunc did not panic")
		}
	}()
	r.RegisterFunc("live", func() int64 { return 0 })
}

// TestRegistryConcurrency hammers one registry from many goroutines —
// registration races, increments, observations, and snapshots — and is
// meaningful under -race (CI runs the suite with the race detector).
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.NewCounter("shared/counter")
			h := r.NewHistogram("shared/hist", 8, 64, 512)
			gauge := r.NewGauge("shared/gauge")
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(int64(i))
				gauge.Set(int64(i))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if got := snap["shared/counter"]; got != goroutines*perG {
		t.Errorf("shared counter = %d, want %d", got, goroutines*perG)
	}
	if got := snap["shared/hist/count"]; got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
}
