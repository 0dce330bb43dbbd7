package shard_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"visibility/internal/algo"
	"visibility/internal/core"
	"visibility/internal/data"
	"visibility/internal/fault"
	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/harness"
	"visibility/internal/index"
	"visibility/internal/obs/recorder"
	"visibility/internal/region"
	"visibility/internal/shard"
)

// digestStream runs stream through a raycast analyzer — sequential when
// shards == 0, sharded otherwise — and renders everything the shard layer
// promises to preserve: the dependence edge stream, each point's plan (the
// producers it materializes from, in order; a sharded plan splits entries
// at atom boundaries, so entries are compared point by point), and every
// materialized input value.
func digestStream(t *testing.T, tree *region.Tree, stream *core.Stream, init map[field.ID]*data.Store, shards int) string {
	return digestStreamMode(t, tree, stream, init, shards, false)
}

// digestStreamMode is digestStream with the dispatch mode pinned:
// forceParallel routes every multi-shard launch through the worker
// goroutines even when the scheduler has a single P, so the race
// detector sees the channel handoff and merge barrier regardless of
// the machine the suite runs on.
func digestStreamMode(t *testing.T, tree *region.Tree, stream *core.Stream, init map[field.ID]*data.Store, shards int, forceParallel bool) string {
	t.Helper()
	newRay, err := algo.Lookup("raycast")
	if err != nil {
		t.Fatalf("lookup raycast: %v", err)
	}
	var an core.Analyzer
	if shards == 0 {
		an = newRay(tree, core.Options{})
	} else {
		sh := shard.New(tree, core.Options{}, shards, shard.Factory(newRay))
		if forceParallel {
			sh.SetSerial(false)
		}
		defer sh.Close()
		an = sh
	}
	eng := core.NewEngine(tree, an, init)
	eng.RecordInputs = true
	eng.StrictPlans = true

	var b strings.Builder
	for _, task := range stream.Tasks {
		res := eng.Launch(task, core.HashKernel{})
		fmt.Fprintf(&b, "task %d deps %v\n", task.ID, res.Deps)
		for ri, req := range task.Reqs {
			fmt.Fprintf(&b, "  plan %d:", ri)
			req.Region.Space.Each(func(p geometry.Point) bool {
				fmt.Fprintf(&b, " [")
				for _, v := range res.Plans[ri] {
					if v.Pts.Contains(p) {
						fmt.Fprintf(&b, " %d.%d %v", v.Task, v.Req, v.Priv)
					}
				}
				fmt.Fprintf(&b, " ]")
				return true
			})
			fmt.Fprintf(&b, "\n")
			in := eng.Inputs[task.ID][ri]
			if in == nil {
				continue
			}
			fmt.Fprintf(&b, "  in %d:", ri)
			req.Region.Space.Each(func(p geometry.Point) bool {
				v, ok := in.Get(p)
				fmt.Fprintf(&b, " %v/%t", v, ok)
				return true
			})
			fmt.Fprintf(&b, "\n")
		}
	}
	return b.String()
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  sequential: %s\n  sharded:    %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length: %d vs %d lines", len(al), len(bl))
}

// TestShardEquivalence is the shard layer's core property: for random
// region trees and task streams (the chaos harness's generators), every
// shard count from 1 to 8 produces a dependence edge stream, per-point
// plans and execution state byte-identical to the sequential analyzer's.
func TestShardEquivalence(t *testing.T) {
	trials := 50
	if testing.Short() {
		trials = 10
	}
	const baseSeed = 90_000
	for trial := 0; trial < trials; trial++ {
		seed := int64(baseSeed + trial)
		rng := rand.New(rand.NewSource(seed))
		tree := harness.ChaosTree(rng)
		stream := harness.ChaosStream(rng, tree, 30)
		init := harness.ChaosInit(tree)
		want := digestStream(t, tree, stream, init, 0)
		for shards := 1; shards <= 8; shards++ {
			got := digestStream(t, tree, stream, init, shards)
			if got != want {
				t.Fatalf("shards=%d diverged from the sequential analyzer (workload seed %d)\n"+
					"repro: go test ./internal/shard -run TestShardEquivalence (trial %d = seed %d+%d)\nfirst divergence at %s",
					shards, seed, trial, baseSeed, trial, firstDiff(want, got))
			}
		}
	}
}

// TestShardParallelDispatch pins the parallel execution path: with
// serial-inline mode forced off, multi-shard launches fan out to worker
// goroutines through their inboxes and merge at the barrier, and the
// result must still be byte-identical to the sequential analyzer. On a
// single-P machine the shard layer would otherwise route everything
// through the inline path, leaving the worker handoff untested — this
// test (run under -race by the suite) keeps it honest everywhere.
func TestShardParallelDispatch(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 4
	}
	const baseSeed = 91_000
	for trial := 0; trial < trials; trial++ {
		seed := int64(baseSeed + trial)
		rng := rand.New(rand.NewSource(seed))
		tree := harness.ChaosTree(rng)
		stream := harness.ChaosStream(rng, tree, 30)
		init := harness.ChaosInit(tree)
		want := digestStream(t, tree, stream, init, 0)
		for _, shards := range []int{2, 4, 7} {
			got := digestStreamMode(t, tree, stream, init, shards, true)
			if got != want {
				t.Fatalf("shards=%d (parallel dispatch) diverged from the sequential analyzer (workload seed %d)\n"+
					"first divergence at %s", shards, seed, firstDiff(want, got))
			}
		}
	}
}

// TestShardVerify runs the sharded analyzer through the full crosscheck
// oracle: values against the sequential interpreter, dependence soundness
// against the exact O(n²) reference, strict plan invariants throughout.
func TestShardVerify(t *testing.T) {
	newRay, _ := algo.Lookup("raycast")
	for trial := 0; trial < 10; trial++ {
		seed := int64(77_000 + trial)
		rng := rand.New(rand.NewSource(seed))
		tree := harness.ChaosTree(rng)
		stream := harness.ChaosStream(rng, tree, 24)
		var open []*shard.Analyzer
		var factories []core.Factory
		for _, shards := range []int{1, 2, 3, 5, 8} {
			shards := shards
			factories = append(factories, core.Factory{
				Name: fmt.Sprintf("raycast+shard%d", shards),
				New: func(tr *region.Tree) core.Analyzer {
					sh := shard.New(tr, core.Options{}, shards, shard.Factory(newRay))
					open = append(open, sh)
					return sh
				},
			})
		}
		err := core.Verify(stream, harness.ChaosInit(tree), core.HashKernel{}, factories...)
		for _, sh := range open {
			sh.Close()
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestBands pins the atom decomposition: bands are non-empty, disjoint,
// cover the space, and follow row-major order along the highest axis.
func TestBands(t *testing.T) {
	spaces := []index.Space{
		index.FromRect(geometry.R1(0, 23)),
		index.FromRect(geometry.R2(0, 0, 5, 3)),
		index.FromRect(geometry.R1(3, 3)),
		index.FromPoints(1, geometry.Pt1(0), geometry.Pt1(9), geometry.Pt1(17)),
	}
	newRay, _ := algo.Lookup("raycast")
	for _, space := range spaces {
		for shards := 1; shards <= 6; shards++ {
			fs := field.NewSpace()
			fs.Add("f0")
			tree := region.NewTree("A", space, fs)
			sh := shard.New(tree, core.Options{}, shards, shard.Factory(newRay))
			atoms := sh.Atoms()
			sh.Close()
			if len(atoms) == 0 || len(atoms) > shards {
				t.Fatalf("space %v shards %d: %d atoms", space, shards, len(atoms))
			}
			union := index.Empty(space.Dim())
			for i, at := range atoms {
				if at.IsEmpty() {
					t.Fatalf("space %v shards %d: atom %d empty", space, shards, i)
				}
				if union.Overlaps(at) {
					t.Fatalf("space %v shards %d: atom %d overlaps earlier atoms", space, shards, i)
				}
				union = union.Union(at)
			}
			if !union.Equal(space) {
				t.Fatalf("space %v shards %d: atoms cover %v, want %v", space, shards, union, space)
			}
		}
	}
}

// TestShardName pins the composed analyzer name and its base.
func TestShardName(t *testing.T) {
	newRay, _ := algo.Lookup("raycast")
	fs := field.NewSpace()
	fs.Add("f0")
	tree := region.NewTree("A", index.FromRect(geometry.R1(0, 9)), fs)
	sh := shard.New(tree, core.Options{}, 4, shard.Factory(newRay))
	defer sh.Close()
	if sh.Name() != "raycast+shard4" {
		t.Fatalf("Name = %q", sh.Name())
	}
	if core.BaseName(sh.Name()) != "raycast" {
		t.Fatalf("BaseName = %q", core.BaseName(sh.Name()))
	}
}

// TestShardRefusesInstrumentation pins what the layer will not carry: a
// probe, a flight recorder or a fault injector would be driven from
// several goroutines in scheduling order.
func TestShardRefusesInstrumentation(t *testing.T) {
	newRay, _ := algo.Lookup("raycast")
	fs := field.NewSpace()
	fs.Add("f0")
	tree := region.NewTree("A", index.FromRect(geometry.R1(0, 9)), fs)
	for name, opts := range map[string]core.Options{
		"Probe":    {Probe: core.NopProbe{}},
		"Recorder": {Recorder: recorder.New(4)},
		"Faults":   {Faults: fault.New(fault.Plan{})},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("shard.New accepted %s", name)
				}
			}()
			shard.New(tree, opts, 2, shard.Factory(newRay)).Close()
		}()
	}
}
