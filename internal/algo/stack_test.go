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
)

func TestSpecCheckAndSuffix(t *testing.T) {
	for _, tc := range []struct {
		spec   algo.Spec
		reject string // substring of the error; empty = accepted
		suffix string
	}{
		{spec: algo.Spec{}, suffix: ""},
		{spec: algo.Spec{Algorithm: "warnock"}, suffix: ""},
		{spec: algo.Spec{Algorithm: "paint", AutoTrace: true}, suffix: "_auto"},
		{spec: algo.Spec{Algorithm: "zbuffer"}, reject: `unknown algorithm "zbuffer"`},
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

	auto := algo.Spec{Algorithm: "warnock", AutoTrace: true}.Build(tree, core.Options{})
	if got := auto.Analyzer.Name(); got != "warnock+autotrace" {
		t.Errorf("autotraced stack Name = %q, want warnock+autotrace", got)
	}
	if auto.Auto == nil || auto.Analyzer != core.Analyzer(auto.Auto) {
		t.Error("the outermost analyzer is not the autotracer")
	}

	plain := algo.Spec{}.Build(tree, core.Options{})
	if plain.Auto != nil {
		t.Errorf("plain stack has an autotracer: %+v", plain)
	}
	if got := plain.Analyzer.Name(); got != "raycast" {
		t.Errorf("plain stack Name = %q", got)
	}
	if plain.Replays() != nil {
		t.Error("plain stack reports replays")
	}

	var none *algo.Stack
	if none.Replays() != nil {
		t.Error("nil stack reports replays")
	}

	defer func() {
		if recover() == nil {
			t.Error("Build accepted a spec that Check rejects")
		}
	}()
	algo.Spec{Algorithm: "zbuffer"}.Build(tree, core.Options{})
}
