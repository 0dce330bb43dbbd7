package sched_test

import (
	"sync"
	"testing"
	"time"

	"visibility/internal/core"
	"visibility/internal/data"
	"visibility/internal/field"
	"visibility/internal/paint"
	"visibility/internal/privilege"
	"visibility/internal/raycast"
	"visibility/internal/region"
	"visibility/internal/sched"
	"visibility/internal/testutil"
	"visibility/internal/warnock"
)

func analyzers() []core.Factory {
	return []core.Factory{
		{Name: "paint", New: func(tr *region.Tree) core.Analyzer { return paint.NewPainter(tr, core.Options{}) }},
		{Name: "warnock", New: func(tr *region.Tree) core.Analyzer { return warnock.New(tr, core.Options{}) }},
		{Name: "raycast", New: func(tr *region.Tree) core.Analyzer { return raycast.New(tr, core.Options{}) }},
	}
}

// TestParallelExecutionMatchesSequential runs several loop iterations of
// the Figure 1 program on 4 workers under every analyzer and compares the
// final contents with the sequential interpreter.
func TestParallelExecutionMatchesSequential(t *testing.T) {
	for _, fac := range analyzers() {
		fac := fac
		t.Run(fac.Name, func(t *testing.T) {
			tree, p, g := testutil.GraphTree()
			init := testutil.FullInit(tree)
			kern := core.HashKernel{}

			// Ground truth.
			seqStream := core.NewStream(tree)
			for iter := 0; iter < 8; iter++ {
				for i := 0; i < 3; i++ {
					testutil.LaunchT1(seqStream, p, g, i)
				}
				for i := 0; i < 3; i++ {
					testutil.LaunchT2(seqStream, p, g, i)
				}
			}
			seq := core.NewSeq(tree, init)
			for _, task := range seqStream.Tasks {
				seq.Run(task, kern)
			}

			// Parallel execution with an identical stream.
			stream := core.NewStream(tree)
			x := sched.NewExecutor(fac.New(tree), init, 4, core.Options{})
			defer x.Shutdown()
			for iter := 0; iter < 8; iter++ {
				for i := 0; i < 3; i++ {
					x.Submit(testutil.LaunchT1(stream, p, g, i), kern, nil)
				}
				for i := 0; i < 3; i++ {
					x.Submit(testutil.LaunchT2(stream, p, g, i), kern, nil)
				}
			}
			x.Drain()

			for f := 0; f < tree.Fields.Len(); f++ {
				var got *data.Store // an inline mapping: a read-only task, submitted and waited for
				read := stream.Launch("inline-read", core.Req{Region: tree.Root, Field: field.ID(f), Priv: reads()})
				done, _ := x.Submit(read, kern, func(inputs []*data.Store) { got = inputs[0] })
				<-done
				want := seq.Global(field.ID(f))
				if !want.Equal(got) {
					t.Fatalf("field %d diverged:\n%s", f, want.Diff(got))
				}
			}
		})
	}
}

// TestIndependentTasksRunConcurrently submits the three independent t1
// tasks of Figure 5 with kernels that rendezvous: if the executor
// serialized them, the rendezvous would time out.
func TestIndependentTasksRunConcurrently(t *testing.T) {
	tree, p, g := testutil.GraphTree()
	stream := core.NewStream(tree)
	x := sched.NewExecutor(raycast.New(tree, core.Options{}), testutil.FullInit(tree), 3, core.Options{})
	defer x.Shutdown()

	var wg sync.WaitGroup
	wg.Add(3)
	rendezvous := func([]*data.Store) {
		wg.Done()
		wg.Wait()
	}
	var done []chan struct{}
	for i := 0; i < 3; i++ {
		ch := make(chan struct{})
		done = append(done, ch)
		ev, _ := x.Submit(testutil.LaunchT1(stream, p, g, i), core.HashKernel{}, rendezvous)
		go func() {
			<-ev
			close(ch)
		}()
	}
	timeout := time.After(5 * time.Second)
	for _, ch := range done {
		select {
		case <-ch:
		case <-timeout:
			t.Fatal("independent tasks did not run concurrently")
		}
	}
}

// TestDependentTasksAreOrdered submits a write and a dependent read of the
// same region and checks the read observes the write's completion.
func TestDependentTasksAreOrdered(t *testing.T) {
	tree, p, g := testutil.GraphTree()
	_ = g
	stream := core.NewStream(tree)
	x := sched.NewExecutor(warnock.New(tree, core.Options{}), testutil.FullInit(tree), 4, core.Options{})
	defer x.Shutdown()

	var order []string
	var mu sync.Mutex
	note := func(s string) func([]*data.Store) {
		return func([]*data.Store) {
			time.Sleep(time.Millisecond) // encourage misordering if unsynchronized
			mu.Lock()
			order = append(order, s)
			mu.Unlock()
		}
	}
	up, _ := tree.Fields.Lookup("up")
	w := stream.Launch("w", core.Req{Region: p.Subregions[0], Field: up, Priv: writes()})
	r := stream.Launch("r", core.Req{Region: p.Subregions[0], Field: up, Priv: reads()})
	x.Submit(w, core.HashKernel{}, note("w"))
	x.Submit(r, core.HashKernel{}, note("r"))
	x.Drain()
	if len(order) != 2 || order[0] != "w" || order[1] != "r" {
		t.Fatalf("execution order = %v, want [w r]", order)
	}
}

func writes() privilege.Privilege { return privilege.Writes() }
func reads() privilege.Privilege  { return privilege.Reads() }
