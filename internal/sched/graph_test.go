package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"visibility/internal/core"
	"visibility/internal/data"
	"visibility/internal/privilege"
	"visibility/internal/raycast"
	"visibility/internal/testutil"
)

// TestGoroutinesBoundedByWorkers queues a long dependent stream behind one
// blocked writer: scheduling it must cost table entries, not goroutines;
// the tables must empty once the stream has run, and Shutdown must leave
// no worker behind.
func TestGoroutinesBoundedByWorkers(t *testing.T) {
	const workers, launches = 4, 1200
	before := runtime.NumGoroutine()
	tree, p, _ := testutil.GraphTree()
	up, _ := tree.Fields.Lookup("up")
	stream := core.NewStream(tree)
	x := NewExecutor(raycast.New(tree, core.Options{}), testutil.FullInit(tree), workers, core.Options{})

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
		x.mu.Lock()
		defer x.mu.Unlock()
		return fmt.Sprintf("live %d, ready %d, ran %d", len(x.live), len(x.ready), ran.Load())
	}

	<-started
	if got := runtime.NumGoroutine(); got > before+workers+2 {
		t.Errorf("%d launches queued behind one task hold %d goroutines, want <= %d", launches, got, before+workers+2)
	}
	if got, want := tables(), fmt.Sprintf("live %d, ready 0, ran 0", launches+1); got != want {
		t.Errorf("behind the gate: %s; want %s", got, want)
	}
	close(release)
	x.Drain()
	if got, want := tables(), fmt.Sprintf("live 0, ready 0, ran %d", launches); got != want {
		t.Errorf("after Drain: %s; want %s", got, want)
	}
	x.Shutdown()
	// A goroutine that has returned may still be counted for a moment.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines after Shutdown, %d before NewExecutor", got, before)
	}
}

// TestDuplicateProducerRunsOnce names one producer twice — the analyzer
// finds it through region data and the task lists it as a future
// dependence — and checks the consumer runs exactly once, after it.
func TestDuplicateProducerRunsOnce(t *testing.T) {
	tree, p, _ := testutil.GraphTree()
	up, _ := tree.Fields.Lookup("up")
	stream := core.NewStream(tree)
	x := NewExecutor(raycast.New(tree, core.Options{}), testutil.FullInit(tree), 2, core.Options{})
	defer x.Shutdown()

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
	x.mu.Lock()
	pending := x.live[r.ID].pending
	x.mu.Unlock()
	if pending != 2 || len(deps) != 1 || deps[0] != w.ID {
		t.Errorf("pending = %d over analyzer deps %v + future dep %d, want one count per edge", pending, deps, w.ID)
	}

	close(release)
	<-done
	x.Drain()
	if fmt.Sprint(order) != "[w r]" {
		t.Errorf("execution order = %v, want [w r]", order)
	}
}
