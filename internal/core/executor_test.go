package core_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"visibility/internal/core"
	"visibility/internal/data"
	"visibility/internal/field"
	"visibility/internal/paint"
	"visibility/internal/privilege"
	"visibility/internal/raycast"
	"visibility/internal/region"
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
// the Figure 1 program in parallel under every analyzer and compares the
// final contents with the sequential interpreter.
func TestParallelExecutionMatchesSequential(t *testing.T) {
	for _, fac := range analyzers() {
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
			seq := core.NewSeq(init)
			for _, task := range seqStream.Tasks {
				seq.Run(task, kern)
			}

			// Parallel execution with an identical stream.
			stream := core.NewStream(tree)
			x := core.NewExecutor(fac.New(tree), init, nil)
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
				read := stream.Launch("inline-read", core.Req{Region: tree.Root, Field: field.ID(f), Priv: privilege.Reads()})
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

// TestIndependentTasksRunConcurrently submits GOMAXPROCS independent
// reads whose kernels rendezvous — if the executor serialized them, the
// rendezvous would time out — and then one more, which must wait for a
// runner: the executor runs at most one kernel per P, so the extra read
// may start only once one of the others has finished.
func TestIndependentTasksRunConcurrently(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	tree, _, _ := testutil.GraphTree()
	up, _ := tree.Fields.Lookup("up")
	stream := core.NewStream(tree)
	x := core.NewExecutor(raycast.New(tree, core.Options{}), testutil.FullInit(tree), nil)
	read := func() *core.Task {
		return stream.Launch("r", core.Req{Region: tree.Root, Field: up, Priv: privilege.Reads()})
	}

	var met sync.WaitGroup
	met.Add(procs)
	release := make(chan struct{})
	var finished atomic.Int64
	for i := 0; i < procs; i++ {
		x.Submit(read(), core.HashKernel{}, func([]*data.Store) {
			met.Done()
			met.Wait()
			<-release
			finished.Add(1)
		})
	}
	all := make(chan struct{})
	go func() {
		met.Wait()
		close(all)
	}()
	select {
	case <-all:
	case <-time.After(5 * time.Second):
		t.Fatalf("%d independent tasks did not run concurrently", procs)
	}

	started := make(chan int64, 1)
	done, _ := x.Submit(read(), core.HashKernel{}, func([]*data.Store) { started <- finished.Load() })
	time.Sleep(10 * time.Millisecond) // room for a runner past the cap to start it early
	close(release)
	<-done
	if n := <-started; n == 0 {
		t.Errorf("read %d started while all %d earlier reads were still running", procs, procs)
	}
	x.Drain()
}

// TestDependentTasksAreOrdered submits a write and a dependent read of the
// same region and checks the read observes the write's completion.
func TestDependentTasksAreOrdered(t *testing.T) {
	tree, p, _ := testutil.GraphTree()
	stream := core.NewStream(tree)
	x := core.NewExecutor(warnock.New(tree, core.Options{}), testutil.FullInit(tree), nil)

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
	w := stream.Launch("w", core.Req{Region: p.Subregions[0], Field: up, Priv: privilege.Writes()})
	r := stream.Launch("r", core.Req{Region: p.Subregions[0], Field: up, Priv: privilege.Reads()})
	x.Submit(w, core.HashKernel{}, note("w"))
	x.Submit(r, core.HashKernel{}, note("r"))
	x.Drain()
	if len(order) != 2 || order[0] != "w" || order[1] != "r" {
		t.Fatalf("execution order = %v, want [w r]", order)
	}
}

// TestGoroutinesBoundedByProcs queues a long dependent stream behind one
// blocked writer: scheduling it must cost table entries, not goroutines;
// the tables must empty once the stream has run, their window of task IDs
// with them, and with nothing in flight the executor must hold no
// goroutine.
func TestGoroutinesBoundedByProcs(t *testing.T) {
	const launches = 1200
	procs := runtime.GOMAXPROCS(0)
	before := runtime.NumGoroutine()
	tree, p, _ := testutil.GraphTree()
	up, _ := tree.Fields.Lookup("up")
	stream := core.NewStream(tree)
	x := core.NewExecutor(raycast.New(tree, core.Options{}), testutil.FullInit(tree), nil)

	started, release := make(chan struct{}), make(chan struct{})
	x.Submit(stream.Launch("w", core.Req{Region: tree.Root, Field: up, Priv: privilege.Writes()}), core.HashKernel{},
		func([]*data.Store) {
			close(started)
			<-release
		})
	var ran atomic.Int64
	for i := 0; i < launches; i++ {
		// Readers fanning out of the last writer; every 16th launch is a
		// writer fanning them back in.
		priv := privilege.Reads()
		if i%16 == 15 {
			priv = privilege.Writes()
		}
		x.Submit(stream.Launch("t", core.Req{Region: p.Subregions[i%3], Field: up, Priv: priv}),
			core.HashKernel{}, func([]*data.Store) { ran.Add(1) })
	}
	tables := func() string {
		live, _, ready := x.Tables()
		return fmt.Sprintf("live %d, ready %d, ran %d", live, ready, ran.Load())
	}

	<-started
	if got := runtime.NumGoroutine(); got > before+procs+2 {
		t.Errorf("%d launches queued behind one task hold %d goroutines, want <= %d", launches, got, before+procs+2)
	}
	if got, want := tables(), fmt.Sprintf("live %d, ready 0, ran 0", launches+1); got != want {
		t.Errorf("behind the gate: %s; want %s", got, want)
	}
	close(release)
	x.Drain()
	if got, want := tables(), fmt.Sprintf("live 0, ready 0, ran %d", launches); got != want {
		t.Errorf("after Drain: %s; want %s", got, want)
	}
	if _, window, _ := x.Tables(); window != 0 {
		t.Errorf("after Drain the live window spans %d task IDs, want 0", window)
	}
	// A runner that has returned may still be counted for a moment.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines with nothing in flight, %d before NewExecutor", got, before)
	}
}

// TestParkedRunnerEndsWithTheLastTask parks a runner deterministically —
// it runs an independent write to completion while another write is held
// — and checks that the held write's finish, which leaves nothing in
// flight, ends the parked runner too.
func TestParkedRunnerEndsWithTheLastTask(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("one runner never parks when the last task finishes: it ran that task")
	}
	before := runtime.NumGoroutine()
	tree, p, _ := testutil.GraphTree()
	up, _ := tree.Fields.Lookup("up")
	stream := core.NewStream(tree)
	x := core.NewExecutor(raycast.New(tree, core.Options{}), testutil.FullInit(tree), nil)
	write := func(i int) *core.Task {
		return stream.Launch("w", core.Req{Region: p.Subregions[i], Field: up, Priv: privilege.Writes()})
	}

	release := make(chan struct{})
	x.Submit(write(0), core.HashKernel{}, func([]*data.Store) { <-release })
	done, _ := x.Submit(write(1), core.HashKernel{}, nil)
	<-done // its runner parks: the held write is still in flight
	close(release)
	x.Drain()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines with nothing in flight, %d before NewExecutor", got, before)
	}
}

// TestDuplicateProducerRunsOnce names one producer twice — the analyzer
// finds it through region data and the task lists it as a future
// dependence — and checks the consumer runs exactly once, after it.
func TestDuplicateProducerRunsOnce(t *testing.T) {
	tree, p, _ := testutil.GraphTree()
	up, _ := tree.Fields.Lookup("up")
	stream := core.NewStream(tree)
	x := core.NewExecutor(raycast.New(tree, core.Options{}), testutil.FullInit(tree), nil)

	var mu sync.Mutex
	var order []string
	note := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	release := make(chan struct{})
	w := stream.Launch("w", core.Req{Region: p.Subregions[0], Field: up, Priv: privilege.Writes()})
	x.Submit(w, core.HashKernel{}, func([]*data.Store) {
		<-release
		note("w")
	})
	r := stream.Launch("r", core.Req{Region: p.Subregions[0], Field: up, Priv: privilege.Reads()})
	r.FutureDeps = []int{w.ID}
	done, deps := x.Submit(r, core.HashKernel{}, func([]*data.Store) { note("r") })
	if pending := x.Pending(r.ID); pending != 2 || len(deps) != 1 || deps[0] != w.ID {
		t.Errorf("pending = %d over analyzer deps %v + future dep %d, want one count per edge", pending, deps, w.ID)
	}

	close(release)
	<-done
	x.Drain()
	if fmt.Sprint(order) != "[w r]" {
		t.Errorf("execution order = %v, want [w r]", order)
	}
}

// planless is an analyzer that reports no dependences and empty plans.
type planless struct{ stats core.Stats }

func (a *planless) Name() string { return "planless" }
func (a *planless) Analyze(t *core.Task) *core.Result {
	return &core.Result{Plans: make([][]core.Visible, len(t.Reqs))}
}
func (a *planless) Stats() *core.Stats { return &a.stats }

// TestSourceRejectsForeignSlots names producers the committed-output table
// holds no store for. Outputs sit in one flat slice, so an unchecked index
// would hand out a neighbour's store: each lookup must instead panic with
// the missing-dependence message.
func TestSourceRejectsForeignSlots(t *testing.T) {
	tree, p, _ := testutil.GraphTree()
	up, _ := tree.Fields.Lookup("up")
	stream := core.NewStream(tree)
	x := core.NewExecutor(&planless{}, testutil.FullInit(tree), nil)
	write := func(i int) *core.Task {
		return stream.Launch("w", core.Req{Region: p.Subregions[i], Field: up, Priv: privilege.Writes()})
	}
	x.Submit(write(0), core.HashKernel{}, nil) // task 0: one requirement
	x.Submit(write(1), core.HashKernel{}, nil) // task 1, its successor in the table
	skipped := write(2)                        // task 2 is never submitted
	x.Submit(write(0), core.HashKernel{}, nil) // task 3
	x.Drain()

	if x.Source(core.Visible{Task: 1, Req: 0}, up) == nil {
		t.Fatal("task 1's committed output is missing")
	}
	for _, v := range []core.Visible{
		{Task: 0, Req: 1},          // past task 0's one requirement: task 1's slot
		{Task: skipped.ID, Req: 0}, // an ID the stream issued but nobody submitted
		{Task: 9, Req: 0},          // an ID past every submitted task
		{Task: 1, Req: -1},
	} {
		want := fmt.Sprintf("core: plan references uncommitted producer %d.%d", v.Task, v.Req)
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.HasPrefix(fmt.Sprint(r), want) {
					t.Errorf("Source(%d.%d) panicked with %v, want %q", v.Task, v.Req, r, want)
				}
			}()
			x.Source(v, up)
		}()
	}
}
