package server_test

import (
	"fmt"
	"net/http"
	"testing"

	"visibility/internal/server"
	"visibility/internal/server/client"
	"visibility/internal/wire"
)

// TestQueriesDuringBatches sweeps the read endpoints while another
// goroutine keeps declaring regions in one session. A session's runtime
// and environment are guarded by its lock; a handler that reads either
// outside its job races with Env.Apply, and the race detector reports it
// here. The sweep ends on a critical-path query, which resolves the
// default region, so a request that never takes the lock (trace) gives a
// batch time to land after the last one that did (metrics); enough
// batches keep the session busy through a dozen or more sweeps. The
// batches launch nothing, so the critical path itself is a 404.
func TestQueriesDuringBatches(t *testing.T) {
	_, c, shutdown := newTestServer(t, server.Config{})
	defer shutdown()
	sess, err := c.CreateSession(client.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const batches = 400
	submitted := make(chan error, 1)
	go func() {
		for i := 0; i < batches; i++ {
			wl := wire.ExampleQuickstart()
			wl.Regions[0].Name = fmt.Sprintf("r%03d", i)
			wl.Regions[0].Partitions, wl.Tasks = nil, nil
			if err := sess.Submit(wl); err != nil {
				submitted <- err
				return
			}
		}
		submitted <- nil
	}()
	for done := false; !done; {
		select {
		case err := <-submitted:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		default:
		}
		if _, err := sess.Metrics(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.DebugTrace(); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.CritPath("", 3); err != nil {
			if se, ok := err.(*client.StatusError); !ok || se.Code != http.StatusNotFound {
				t.Fatal(err)
			}
		}
	}
	last := fmt.Sprintf("r%03d", batches-1)
	if rows, err := sess.Snapshot(last, "val"); err != nil || len(rows) != 100 {
		t.Fatalf("snapshot of %s after every batch: %d rows, %v", last, len(rows), err)
	}
}
