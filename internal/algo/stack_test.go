package algo_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"visibility/internal/algo"
	"visibility/internal/apps"
	"visibility/internal/apps/circuit"
	"visibility/internal/apps/stencil"
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
	defer func() {
		if recover() == nil {
			t.Error("Build accepted a spec that Check rejects")
		}
	}()
	algo.Spec{Algorithm: "zbuffer"}.Build(tree, core.Options{})
}

// TestResultsAreCallerOwned holds every stack to core.Result's ownership
// rule. Deps are the caller's: analyzers collect into scratch they reuse
// launch after launch, so deps that still shared it would change under a
// holder that keeps them, as the dependence graph and the benchmark's
// soundness check do. Each launch's deps are copied as they return and
// compared with the copy once the whole stream has been analyzed, after an
// append to each, which must not reach the next launch's. Plans are lent
// until the next Analyze: each launch's plans are held to copies taken at
// return, before the next launch, after an append to each, which must not
// reach the next plan.
func TestResultsAreCallerOwned(t *testing.T) {
	for _, app := range []struct {
		name  string
		build apps.Builder
	}{{"circuit", circuit.New}, {"stencil", stencil.New}} {
		for _, name := range algo.Names() {
			for _, auto := range []bool{false, true} {
				spec := algo.Spec{Algorithm: name, AutoTrace: auto}
				inst := app.build(16)
				an := spec.Build(inst.Tree, core.Options{}).Analyzer
				stream := core.NewStream(inst.Tree)
				var launches []apps.Launch
				if inst.EmitInit != nil {
					launches = inst.EmitInit(stream)
				}
				for iter := 0; iter <= 3; iter++ {
					launches = append(launches, inst.Emit(stream, iter)...)
				}
				var kept, copies [][]int
				for i, l := range launches {
					res := an.Analyze(l.Task)
					kept, copies = append(kept, res.Deps), append(copies, slices.Clone(res.Deps))
					plans := make([][]core.Visible, len(res.Plans))
					for ri, plan := range res.Plans {
						plans[ri] = append(slices.Clone(plan), core.Visible{Task: -i})
					}
					for ri := range res.Plans {
						res.Plans[ri] = append(res.Plans[ri], core.Visible{Task: -i})
					}
					if !reflect.DeepEqual(res.Plans, plans) {
						t.Errorf("%s %s%s: launch %d's plans changed before the next launch:\n got %+v\nwant %+v",
							app.name, name, spec.Suffix(), i, res.Plans, plans)
						break
					}
				}
				for i := range kept {
					kept[i] = append(kept[i], -i)
					copies[i] = append(copies[i], -i)
				}
				for i, deps := range kept {
					if !slices.Equal(deps, copies[i]) {
						t.Errorf("%s %s%s: launch %d's deps changed after it returned: got %v, want %v",
							app.name, name, spec.Suffix(), i, deps, copies[i])
						break
					}
				}
			}
		}
	}
}
