package algo_test

import (
	"strings"
	"testing"

	"visibility/internal/algo"
	"visibility/internal/core"
	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/index"
	"visibility/internal/region"
	"visibility/internal/trace"
)

func TestSpecCheckAndSuffix(t *testing.T) {
	for _, tc := range []struct {
		spec   algo.Spec
		reject string // substring of the error; empty = accepted
		suffix string
	}{
		{spec: algo.Spec{}, suffix: ""},
		{spec: algo.Spec{Algorithm: "warnock", Tracing: true}, suffix: ""},
		{spec: algo.Spec{Algorithm: "paint", AutoTrace: true}, suffix: "_auto"},
		{spec: algo.Spec{Shards: 1}, suffix: ""},
		{spec: algo.Spec{AutoTrace: true, Shards: 4}, suffix: "_auto"},
		{spec: algo.Spec{Algorithm: "zbuffer"}, reject: `unknown algorithm "zbuffer"`},
		{spec: algo.Spec{Tracing: true, AutoTrace: true}, reject: "mutually exclusive"},
		{spec: algo.Spec{Shards: -1}, reject: "invalid shard count -1"},
	} {
		got, err := tc.spec.Check()
		if tc.reject != "" {
			if err == nil || !strings.Contains(err.Error(), tc.reject) {
				t.Errorf("%+v: Check error = %v, want one containing %q", tc.spec, err, tc.reject)
			}
			continue
		}
		if err != nil {
			t.Errorf("%+v: Check: %v", tc.spec, err)
			continue
		}
		want := tc.spec
		if want.Algorithm == "" {
			want.Algorithm = "raycast"
		}
		if got != want {
			t.Errorf("%+v: Check = %+v, want %+v", tc.spec, got, want)
		}
		if s := got.Suffix(); s != tc.suffix {
			t.Errorf("%+v: Suffix = %q, want %q", tc.spec, s, tc.suffix)
		}
	}
}

func TestBuild(t *testing.T) {
	fs := field.NewSpace()
	fs.Add("v")
	tree := region.NewTree("A", index.FromRect(geometry.R1(0, 9)), fs)

	full := algo.Spec{AutoTrace: true, Shards: 4}.Build(tree, core.Options{})
	if got := full.Analyzer.Name(); got != "raycast+shard4+autotrace" {
		t.Errorf("full stack Name = %q, want raycast+shard4+autotrace", got)
	}
	if full.Auto == nil || full.Shard == nil || full.Tracer != nil {
		t.Errorf("full stack handles = %+v, want Auto and Shard only", full)
	}
	if full.Analyzer != core.Analyzer(full.Auto) {
		t.Error("the outermost analyzer is not the autotracer")
	}
	full.Close()
	full.Close() // idempotent

	traced := algo.Spec{Algorithm: "warnock", Tracing: true}.Build(tree, core.Options{})
	if traced.Tracer == nil || traced.Auto != nil || traced.Shard != nil {
		t.Errorf("traced stack handles = %+v, want Tracer only", traced)
	}
	if got := traced.Analyzer.Name(); got != "warnock+trace" {
		t.Errorf("traced stack Name = %q", got)
	}

	plain := algo.Spec{}.Build(tree, core.Options{})
	if plain.Tracer != nil || plain.Auto != nil || plain.Shard != nil {
		t.Errorf("plain stack has wrapper handles: %+v", plain)
	}
	if got := plain.Analyzer.Name(); got != "raycast" {
		t.Errorf("plain stack Name = %q", got)
	}
	plain.Close()
	if plain.TraceStats() != (trace.Stats{}) {
		t.Error("plain stack reports tracing counters")
	}

	var none *algo.Stack
	none.Close()
	if none.TraceStats() != (trace.Stats{}) {
		t.Error("nil stack reports tracing counters")
	}

	defer func() {
		if recover() == nil {
			t.Error("Build accepted a spec that Check rejects")
		}
	}()
	algo.Spec{Tracing: true, AutoTrace: true}.Build(tree, core.Options{})
}
