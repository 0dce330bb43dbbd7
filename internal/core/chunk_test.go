package core_test

import (
	"reflect"
	"slices"
	"testing"

	"visibility/internal/algo"
	"visibility/internal/apps/circuit"
	"visibility/internal/core"
	"visibility/internal/privilege"
)

// TestChunkedOutputsAreCallerOwned holds what Scan.Result and
// Stream.Launch carve from their chunks to the ownership the caller is
// promised: every Result, deps list, Task and requirement list is a window
// of its own, capacity clipped, so an append to one copies instead of
// running into a neighbour. Circuit at 16 nodes runs through each analyzer
// until every chunk behind a Result and a Task has been refilled at least
// three times; each Result and Task is copied as it returns, every deps
// and requirement slice is then appended to, and each must still equal
// its copy. Plans are lent, not carved; algo.TestResultsAreCallerOwned
// holds them to their copies before the next launch.
func TestChunkedOutputsAreCallerOwned(t *testing.T) {
	for _, name := range []string{"raycast", "warnock", "paint"} {
		t.Run(name, func(t *testing.T) {
			newAn, err := algo.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			inst := circuit.New(16)
			an := newAn(inst.Tree, core.Options{})
			stream := core.NewStream(inst.Tree)
			var (
				kept, copies []*core.Result
				deps, ins    int
			)
			analyze := func(tk *core.Task) {
				res := an.Analyze(tk)
				kept, copies = append(kept, res), append(copies, &core.Result{Deps: slices.Clone(res.Deps)})
				deps += len(res.Deps)
			}
			for _, l := range inst.EmitInit(stream) {
				analyze(l.Task)
			}
			for iter := 0; min(len(kept), deps) <= 3*core.ChunkLen; iter++ {
				for _, l := range inst.Emit(stream, iter) {
					analyze(l.Task)
				}
			}
			tasks := make([]core.Task, len(stream.Tasks))
			for i, tk := range stream.Tasks {
				tasks[i] = *tk
				tasks[i].Reqs = slices.Clone(tk.Reqs)
				ins += len(tk.Reqs)
			}
			if ins <= 3*core.ChunkLen {
				t.Fatalf("%d requirements fill fewer than three chunks; the test checks nothing", ins)
			}

			for i, res := range kept {
				res.Deps = append(res.Deps, -1-i)
				copies[i].Deps = append(copies[i].Deps, -1-i)
			}
			for i, res := range kept {
				if !reflect.DeepEqual(res.Deps, copies[i].Deps) {
					t.Fatalf("launch %d's deps changed under their holder: %v, want %v", i, res.Deps, copies[i].Deps)
				}
			}
			marker := core.Req{Region: inst.Tree.Root, Priv: privilege.Writes()}
			for _, tk := range stream.Tasks {
				tk.Reqs = append(tk.Reqs, marker)
			}
			for i, tk := range stream.Tasks {
				if want := append(tasks[i].Reqs, marker); !reflect.DeepEqual(tk.Reqs, want) || tk.ID != i || tk.Name != tasks[i].Name {
					t.Fatalf("task %d changed under its holder: got %v %v, want %v %v", i, tk, tk.Reqs, &tasks[i], want)
				}
			}
		})
	}
}

// TestLaunchCopiesRequirements: a caller may reuse the slice it passes to
// Stream.Launch; the task keeps the requirements as they were at launch.
func TestLaunchCopiesRequirements(t *testing.T) {
	inst := circuit.New(2)
	s := core.NewStream(inst.Tree)
	reqs := []core.Req{{Region: inst.Tree.Root, Priv: privilege.Reads()}}
	first := s.Launch("first", reqs...)
	reqs[0].Priv = privilege.Writes()
	second := s.Launch("second", reqs...)
	if !first.Reqs[0].Priv.Same(privilege.Reads()) || !second.Reqs[0].Priv.Same(privilege.Writes()) {
		t.Fatalf("requirements follow the caller's slice: first %v, second %v", first.Reqs, second.Reqs)
	}
}
