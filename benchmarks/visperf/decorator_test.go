package main

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"visibility/internal/algo"
	"visibility/internal/apps/circuit"
	"visibility/internal/core"
	"visibility/internal/region"
	"visibility/internal/shard"
)

// digest drives the circuit init phase and two iterations through an
// analyzer and hashes every result it returns: dependences and plans.
func digest(build func(tree *region.Tree) core.Analyzer) [sha256.Size]byte {
	inst := circuit.New(4)
	an := build(inst.Tree)
	stream := core.NewStream(inst.Tree)
	h := sha256.New()
	launches := inst.EmitInit(stream)
	for iter := 0; iter < 2; iter++ {
		launches = append(launches, inst.Emit(stream, iter)...)
	}
	for _, l := range launches {
		res := an.Analyze(l.Task)
		fmt.Fprintf(h, "%d %v %v\n", l.Task.ID, res.Deps, res.Plans)
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// TestDecoratorIsTransparent: the span-recording decorator must hand back
// exactly what the analyzer under it returned, for all three analyzers
// and for the shard layer, with and without a tracer attached.
func TestDecoratorIsTransparent(t *testing.T) {
	for _, alg := range analyzers {
		newAn, err := algo.Lookup(alg)
		if err != nil {
			t.Fatal(err)
		}
		builds := map[string]func(tree *region.Tree) core.Analyzer{
			alg: func(tree *region.Tree) core.Analyzer { return newAn(tree, core.Options{}) },
		}
		if alg == "raycast" {
			builds["raycast+shard2"] = func(tree *region.Tree) core.Analyzer {
				sh := shard.New(tree, core.Options{}, 2, shard.Factory(newAn))
				t.Cleanup(sh.Close)
				return sh
			}
		}
		for name, build := range builds {
			want := digest(build)
			for _, tr := range []*tracer{nil, newTracer(time.Now())} {
				var dec *captureAnalyzer
				got := digest(func(tree *region.Tree) core.Analyzer {
					dec = &captureAnalyzer{Analyzer: build(tree), tr: tr, keep: 8}
					return dec
				})
				if got != want {
					t.Errorf("%s: decorated results differ from undecorated (tracer %v)", name, tr != nil)
				}
				if len(dec.deps) != 8 {
					t.Errorf("%s: decorator kept %d dependence lists, want 8", name, len(dec.deps))
				}
				if tr != nil && tr.stat("analyzer.analyze").count == 0 {
					t.Errorf("%s: decorator recorded no analyzer.analyze spans", name)
				}
			}
		}
	}
}
