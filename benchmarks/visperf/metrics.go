package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// analyzers are the three visibility algorithms every workload runs, in
// the order their legs are interleaved.
var analyzers = []string{"raycast", "warnock", "paint"}

// metricDef is one entry of BENCHMARK.json's end_to_end or per_layer list.
// Bound is the share of the parent's median by which an end-to-end metric
// may get worse; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// bound is every end-to-end metric's regression bound. On the shared
// 2-vCPU virtual machine the benchmark was written on, sets of ten runs
// with ten seeds show quartile spreads of 1.5–9.3% in an ordinary hour
// (README.md has the table) and the machine has worse hours, so all take
// the widest bound the driver allows.
const bound = 0.25

// endToEnd returns the end-to-end metrics, the same for every workload.
func endToEnd() []metricDef {
	defs := []metricDef{{"setup_s", "s", "lower", bound}}
	for _, a := range analyzers {
		defs = append(defs, metricDef{a + "_launches_per_s", "launches/s", "higher", bound})
	}
	for _, a := range analyzers {
		defs = append(defs, metricDef{a + "_step_p50_ms", "ms", "lower", bound})
	}
	for _, a := range analyzers {
		defs = append(defs, metricDef{a + "_step_p95_ms", "ms", "lower", bound})
	}
	return defs
}

// perLayer returns the per-layer metrics of the traced run. Every
// workload prints all of them; one that does not apply to a workload's
// path (virtual times and driver metrics on the service path; wire,
// server, client and Runtime metrics on the harness path) reads 0.
func perLayer() []metricDef {
	var defs []metricDef
	add := func(better string, unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("lower", "ns/op", "index.intersect_ns_op", "index.subtract_ns_op", "index.covers_ns_op",
		"index.overlaps_ns_op", "index.union_ns_op")
	add("lower", "allocs/op", "index.intersect_allocs_op", "index.subtract_allocs_op", "index.covers_allocs_op")
	add("lower", "rects", "index.rects_per_operand")
	add("lower", "us", "bvh.build_us")
	add("lower", "ns/op", "bvh.query_ns_op", "bvh.kd_query_ns_op")
	for _, a := range analyzers {
		add("lower", "us", a+".analyze_us_p50", a+".analyze_us_p95")
		add("lower", "ratio", a+".busy_share")
		add("lower", "count", a+".ops_per_launch", a+".deps_per_launch", a+".allocs_per_launch")
		add("lower", "s", a+".virt_init_s", a+".virt_iter_s")
	}
	add("lower", "us", "apps.emit_us_step", "dist.self_us_launch")
	add("lower", "ratio", "dist.self_share")
	add("lower", "ms", "dist.barrier_ms")
	add("lower", "count", "cluster.messages_per_launch")
	add("lower", "ratio", "shard.s1_over_plain", "shard.s2_over_plain")
	add("lower", "count", "shard.dispatches_per_launch")
	add("higher", "ratio", "shard.atom_skip_share")
	add("lower", "ratio", "autotrace.over_plain")
	add("higher", "ratio", "autotrace.replay_share")
	add("lower", "ratio", "trace.over_plain", "prov.over_plain", "recorder.over_plain", "spans.over_plain")
	add("lower", "us", "runtime.launch_us_p50", "runtime.launch_us_p95", "runtime.read_us_p50", "runtime.exec_wait_us_step")
	add("higher", "launches/s", "runtime.launches_per_s")
	add("lower", "count", "runtime.allocs_per_launch")
	add("higher", "ratio", "sched.cache_hit_share")
	add("lower", "B", "wire.bytes_per_batch")
	add("lower", "us", "wire.encode_us_batch", "wire.decode_us_batch", "wire.apply_us_batch", "wire.apply_self_us_launch")
	add("lower", "ms", "server.self_ms_step")
	add("lower", "us", "server.queue_wait_us_p50", "server.queue_wait_us_p95")
	add("lower", "ms", "server.http_workloads_ms_p50", "server.http_snapshot_ms_p50")
	add("lower", "ratio", "server.rejected_share")
	add("lower", "B", "server.snapshot_bytes")
	add("lower", "ms", "client.submit_ms_p50", "client.snapshot_ms_p50", "client.explain_ms_p50")
	add("lower", "count", "client.retries_per_step")
	add("lower", "ratio", "go.gc_cpu_share")
	add("lower", "MB", "go.heap_peak_mb")
	add("lower", "count", "go.allocs_per_launch")
	add("lower", "B", "go.bytes_per_launch")
	add("lower", "ratio", "trace.overhead_share")
	return defs
}

// runSeconds is BENCHMARK.json's run_seconds: the measuring budget the
// step counts in sizes() were chosen for.
const runSeconds = 30

// manifest renders BENCHMARK.json from the tables above, so the file the
// driver reads and the program that prints the metrics cannot drift
// apart (TestManifestMatchesFile compares them).
func manifest(workloads []workload) ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type perLayerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []wl          `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []perLayerDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmarks/run.sh"},
		Paths:      []string{"benchmarks"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd(),
	}
	for _, w := range workloads {
		why := w.why()
		if len(why) > 200 || strings.ContainsAny(why, "\n\r") {
			return nil, fmt.Errorf("workload %s: why must be one line of at most 200 characters, got %d", w.name(), len(why))
		}
		doc.Workloads = append(doc.Workloads, wl{w.name(), why})
	}
	for _, d := range perLayer() {
		doc.PerLayer = append(doc.PerLayer, perLayerDef{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
