// Package obs is the observability layer: a metrics registry of typed
// atomic instruments, a ring-buffered span recorder for the phases of each
// per-launch analysis, and a Chrome trace-event (Perfetto-loadable) JSON
// exporter for both wall-clock spans and the cluster's virtual-time
// schedule.
//
// The package is stdlib-only and sits below every other package in the
// module: core, the analyzers, the tracer, the scheduler, the cluster
// simulator, and the experiment harness all publish into it. Instruments
// are cheap enough to leave on unconditionally — a Counter increment is one
// atomic add — and span recording is nil-safe, so components hold a
// possibly-nil *Buffer and pay a single branch when observability is off.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the value by d, so components sharing a gauge sum into it.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram over int64 observations. Bounds
// are inclusive upper edges in ascending order; an implicit overflow
// bucket captures observations above the last bound. Buckets, count, and
// sum are all atomic, so concurrent Observe calls need no lock.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1; last is overflow
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile estimates the q-quantile (0 < q <= 1) of the observed
// distribution by linear interpolation inside the bucket containing the
// rank, taking each bucket's lower edge from the previous bound (0 for
// the first). Observations that landed in the overflow bucket clamp the
// estimate to the last bound — the histogram cannot see past its edges.
// Degenerate histograms are well-defined, never NaN and never a panic:
// with no observations the answer is 0, and a single-bucket histogram
// (no bounds, only the overflow bucket) has no edges to interpolate
// between, so every quantile is 0 as well.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 || len(h.bounds) == 0 {
		return 0
	}
	if q <= 0 {
		q = 1 / float64(total)
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	lo := int64(0)
	for i, bound := range h.bounds {
		n := h.buckets[i].Load()
		if cum+n >= rank {
			frac := float64(rank-cum) / float64(n)
			return lo + int64(math.Round(frac*float64(bound-lo)))
		}
		cum += n
		lo = bound
	}
	return h.bounds[len(h.bounds)-1]
}

// HistogramView is a point-in-time export of one histogram: the bucket
// bounds and counts, the observation count and sum, and the standard
// latency quantiles. It is the shape benchmark records and dashboards
// consume without re-deriving quantiles from raw bucket counts.
type HistogramView struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"` // len(Bounds)+1; last is overflow
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	P50    int64   `json:"p50"`
	P95    int64   `json:"p95"`
	P99    int64   `json:"p99"`
}

// View exports the histogram's current state. Bucket counts are loaded
// one atomic at a time, so a view taken during concurrent Observe calls
// is a consistent-enough snapshot for reporting, not an exact cut.
func (h *Histogram) View() HistogramView {
	v := HistogramView{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: make([]int64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
		P50:    h.Quantile(0.50),
		P95:    h.Quantile(0.95),
		P99:    h.Quantile(0.99),
	}
	for i := range h.buckets {
		v.Counts[i] = h.buckets[i].Load()
	}
	return v
}

// Registry holds instruments by hierarchical slash-separated name
// (e.g. "cluster/messages"). Registration is idempotent: asking for an
// existing name of the same kind returns the existing instrument, so
// components sharing a registry coordinate by name alone. Registering one
// name as two different kinds panics — that is a wiring bug, not a
// runtime condition.
type Registry struct {
	mu          sync.Mutex
	instruments map[string]any          // guarded by mu
	funcs       map[string]func() int64 // guarded by mu
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		instruments: make(map[string]any),
		funcs:       make(map[string]func() int64),
	}
}

// register returns the existing instrument under name after checking its
// kind, or installs the one built by mk.
func (r *Registry) register(name string, kind string, mk func() any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	if inst, ok := r.instruments[name]; ok {
		switch inst.(type) {
		case *Counter:
			if kind != "counter" {
				panic(fmt.Sprintf("obs: %q already registered as a counter", name))
			}
		case *Gauge:
			if kind != "gauge" {
				panic(fmt.Sprintf("obs: %q already registered as a gauge", name))
			}
		case *Histogram:
			if kind != "histogram" {
				panic(fmt.Sprintf("obs: %q already registered as a histogram", name))
			}
		}
		return inst
	}
	if _, ok := r.funcs[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as a computed metric", name))
	}
	inst := mk()
	r.instruments[name] = inst
	return inst
}

// NewCounter returns the counter registered under name, creating it on
// first use.
func (r *Registry) NewCounter(name string) *Counter {
	return r.register(name, "counter", func() any { return &Counter{} }).(*Counter)
}

// NewGauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) NewGauge(name string) *Gauge {
	return r.register(name, "gauge", func() any { return &Gauge{} }).(*Gauge)
}

// NewHistogram returns the histogram registered under name, creating it
// with the given ascending inclusive bucket bounds on first use (later
// bounds are ignored for an existing histogram).
func (r *Registry) NewHistogram(name string, bounds ...int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending: %v", name, bounds))
		}
	}
	return r.register(name, "histogram", func() any {
		return &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
	}).(*Histogram)
}

// RegisterFunc installs a computed metric: fn is evaluated at snapshot
// time. Use it to expose counters that already live elsewhere (e.g. a
// core.Stats field) without changing how they are incremented; the caller
// must guarantee fn is safe to call when Snapshot runs. Registering a
// duplicate name panics.
func (r *Registry) RegisterFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.instruments[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as an instrument", name))
	}
	if _, ok := r.funcs[name]; ok {
		panic(fmt.Sprintf("obs: computed metric %q already registered", name))
	}
	r.funcs[name] = fn
}

// Snapshot is a point-in-time view of every metric in a registry.
// Histograms expand into one entry per bucket ("name/le_<bound>" and
// "name/le_inf") plus "name/count", "name/sum", and quantile estimates
// "name/p50", "name/p95", "name/p99" (see Histogram.Quantile) so
// dashboards and CI can assert on latency percentiles without
// re-deriving them from bucket counts.
type Snapshot map[string]int64

// Snapshot captures the current value of every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(Snapshot, len(r.instruments)+len(r.funcs))
	for name, inst := range r.instruments {
		switch m := inst.(type) {
		case *Counter:
			out[name] = m.Load()
		case *Gauge:
			out[name] = m.Load()
		case *Histogram:
			for i, b := range m.bounds {
				out[name+"/le_"+strconv.FormatInt(b, 10)] = m.buckets[i].Load()
			}
			out[name+"/le_inf"] = m.buckets[len(m.bounds)].Load()
			out[name+"/count"] = m.Count()
			out[name+"/sum"] = m.Sum()
			out[name+"/p50"] = m.Quantile(0.50)
			out[name+"/p95"] = m.Quantile(0.95)
			out[name+"/p99"] = m.Quantile(0.99)
		}
	}
	for name, fn := range r.funcs {
		out[name] = fn()
	}
	return out
}
