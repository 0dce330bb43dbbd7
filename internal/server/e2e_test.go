package server_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"visibility"
	"visibility/internal/obs/recorder"
	"visibility/internal/server"
	"visibility/internal/server/client"
	"visibility/internal/wire"
)

func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *client.Client, func()) {
	t.Helper()
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = -1 // no surprise expiry mid-test
	}
	srv := server.New(cfg)
	hs := httptest.NewServer(srv.Handler())
	c := client.New(hs.URL)
	c.RetryWait = 10 * time.Millisecond
	return srv, c, func() {
		if err := srv.Shutdown(t.Context()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		hs.Close()
	}
}

// localRows reads region/field from an in-process runtime in the same
// rows-of-(coords..., value) shape the HTTP snapshot endpoint serves.
func localRows(rt *visibility.Runtime, reg *visibility.Region, field string) [][]float64 {
	dim := reg.Space().Dim()
	var rows [][]float64
	rt.Read(reg, field).Each(func(p visibility.Point, v float64) {
		row := make([]float64, 0, dim+1)
		for a := 0; a < dim; a++ {
			row = append(row, float64(p.C[a]))
		}
		rows = append(rows, append(row, v))
	})
	return rows
}

// TestE2EGraphsim replays the Figure 1 workload over HTTP and requires
// the served snapshot to equal an in-process application of the same
// workload, value for value — the acceptance bar for the wire+server
// stack.
func TestE2EGraphsim(t *testing.T) {
	_, c, shutdown := newTestServer(t, server.Config{})
	defer shutdown()

	wl := wire.ExampleGraphsim(10)
	sess, err := c.CreateSession(client.SessionConfig{Algorithm: "raycast"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(wl); err != nil {
		t.Fatal(err)
	}

	rt := visibility.New(visibility.Config{})
	defer rt.Close()
	env := wire.NewEnv(rt)
	if _, err := env.Apply(wl); err != nil {
		t.Fatal(err)
	}

	for _, field := range []string{"up", "down"} {
		got, err := sess.Snapshot("N", field)
		if err != nil {
			t.Fatal(err)
		}
		want := localRows(rt, env.Region("N"), field)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("field %s: served snapshot diverges from in-process\nserved:   %v\nin-proc:  %v", field, got, want)
		}
	}

	// The dependence graph is served and matches the in-process one.
	got, err := sess.Dependences("N")
	if err != nil {
		t.Fatal(err)
	}
	want := rt.Dependences(env.Region("N"))
	// The served session has two extra inline-read tasks from the
	// snapshot queries above; the common prefix must agree exactly.
	if len(got) < len(want) {
		t.Fatalf("served graph has %d tasks, in-process %d", len(got), len(want))
	}
	if !reflect.DeepEqual(got[:len(want)], want) {
		t.Fatalf("dependence graphs diverge:\nserved:  %+v\nlocal:   %+v", got[:len(want)], want)
	}

	dot, err := sess.CritDOT("N")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "t1") {
		t.Fatalf("DOT output looks wrong:\n%s", dot)
	}

	// Session observability: analyzer counters and the span ring's
	// overwrite count are published per session.
	snap, err := sess.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if snap["analyzer/N/launches"] == 0 {
		t.Errorf("session metrics missing analyzer launches: %v", snap)
	}
	// The default ring of 4096 spans holds this whole run.
	if dropped, ok := snap["spans/dropped"]; !ok || dropped != 0 {
		t.Errorf("spans/dropped = %d (published %v), want 0", dropped, ok)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestE2ECheckpointRestore round-trips a session over the HTTP
// checkpoint/restore pair and keeps computing on the restored state.
func TestE2ECheckpointRestore(t *testing.T) {
	_, c, shutdown := newTestServer(t, server.Config{})
	defer shutdown()

	sess, err := c.CreateSession(client.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(wire.ExampleQuickstart()); err != nil {
		t.Fatal(err)
	}
	before, err := sess.Snapshot("cells", "val")
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := sess.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	restored, err := c.Restore(ckpt, client.SessionConfig{Algorithm: "warnock"})
	if err != nil {
		t.Fatal(err)
	}
	after, err := restored.Snapshot("cells", "val")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("restored snapshot diverges from checkpointed one")
	}

	// The restored session accepts batches against restored regions.
	batch := &wire.Workload{
		Version: wire.Version,
		Tasks: []wire.TaskDecl{{
			Name: "post-restore",
			Accesses: []wire.AccessDecl{{
				Region: "blocks[1]", Field: "val", Privilege: "write",
				Kernel: &wire.FuncSpec{Name: "fill", Args: map[string]float64{"value": -1}},
			}},
		}},
	}
	if err := restored.Submit(batch); err != nil {
		t.Fatal(err)
	}
	rows, err := restored.Snapshot("cells", "val")
	if err != nil {
		t.Fatal(err)
	}
	if rows[30][1] != -1 {
		t.Fatalf("post-restore write not visible: row %v", rows[30])
	}
	if err := restored.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSessions runs 8 tenants concurrently (the -race bar from
// the issue): every session must compute the identical deterministic
// result, and the per-session metrics registries must stay disjoint —
// each one sees exactly its own launches.
func TestConcurrentSessions(t *testing.T) {
	srv, c, shutdown := newTestServer(t, server.Config{})
	defer shutdown()

	const sessions = 8
	wl := wire.ExampleGraphsim(3)

	type result struct {
		rows     [][]float64
		launches int64
		err      error
	}
	results := make([]result, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res := &results[i]
			sess, err := c.CreateSession(client.SessionConfig{})
			if err != nil {
				res.err = err
				return
			}
			defer func() {
				if err := sess.Close(); err != nil && res.err == nil {
					res.err = err
				}
			}()
			if res.err = sess.Submit(wl); res.err != nil {
				return
			}
			if res.rows, res.err = sess.Snapshot("N", "up"); res.err != nil {
				return
			}
			snap, err := sess.Metrics()
			if err != nil {
				res.err = err
				return
			}
			res.launches = snap["analyzer/N/launches"]
		}(i)
	}
	wg.Wait()

	for i, res := range results {
		if res.err != nil {
			t.Fatalf("session %d: %v", i, res.err)
		}
		if !reflect.DeepEqual(res.rows, results[0].rows) {
			t.Fatalf("session %d computed a different snapshot than session 0", i)
		}
		// Registries are disjoint: every session saw exactly the same
		// number of launches (its own workload plus its own snapshot
		// read), not a shared accumulating counter.
		if res.launches != results[0].launches {
			t.Fatalf("session %d saw %d launches, session 0 saw %d — registries leak across sessions",
				i, res.launches, results[0].launches)
		}
	}
	if results[0].launches == 0 {
		t.Fatal("sessions recorded zero launches")
	}
	if n := srv.SessionCount(); n != 0 {
		t.Fatalf("after closing all sessions, %d remain", n)
	}
	if n := srv.InFlight(); n != 0 {
		t.Fatalf("after closing all sessions, %d jobs in flight", n)
	}
}

// TestSessionsHoldNoGoroutine: a session is a lock its requests run their
// jobs under, so sessions that launch nothing add no goroutine.
func TestSessionsHoldNoGoroutine(t *testing.T) {
	_, c, shutdown := newTestServer(t, server.Config{})
	defer shutdown()
	// The first session opens the client's connection and its goroutines.
	if _, err := c.CreateSession(client.SessionConfig{}); err != nil {
		t.Fatal(err)
	}
	const sessions = 32
	before := runtime.NumGoroutine()
	for i := 0; i < sessions; i++ {
		if _, err := c.CreateSession(client.SessionConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	if grew := runtime.NumGoroutine() - before; grew >= sessions {
		t.Fatalf("%d idle sessions added %d goroutines", sessions, grew)
	}
}

// TestIdleExpiry checks the janitor reclaims abandoned sessions.
func TestIdleExpiry(t *testing.T) {
	srv, c, shutdown := newTestServer(t, server.Config{IdleTimeout: 50 * time.Millisecond})
	defer shutdown()
	if _, err := c.CreateSession(client.SessionConfig{}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.SessionCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle session never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDrain checks graceful shutdown: queued work completes, the session
// count reaches zero, and new work is refused with 503.
func TestDrain(t *testing.T) {
	srv := server.New(server.Config{IdleTimeout: -1})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := client.New(hs.URL)

	sess, err := c.CreateSession(client.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		wl := wire.ExampleGraphsim(2)
		wl.Regions[0].Name = fmt.Sprintf("N%d", i)
		for ti := range wl.Tasks {
			for ai := range wl.Tasks[ti].Accesses {
				a := &wl.Tasks[ti].Accesses[ai]
				a.Region = strings.Replace(a.Region, "P[", fmt.Sprintf("P%d[", i), 1)
				a.Region = strings.Replace(a.Region, "G[", fmt.Sprintf("G%d[", i), 1)
			}
		}
		for pi := range wl.Regions[0].Partitions {
			p := &wl.Regions[0].Partitions[pi]
			p.Name = fmt.Sprintf("%s%d", p.Name, i)
			if p.Source != "" {
				p.Source += fmt.Sprint(i)
			}
			if p.Left != "" {
				p.Left += fmt.Sprint(i)
				p.Right += fmt.Sprint(i)
			}
		}
		if err := sess.Submit(wl); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	if n := srv.SessionCount(); n != 0 {
		t.Fatalf("after drain, %d sessions remain", n)
	}
	if n := srv.InFlight(); n != 0 {
		t.Fatalf("after drain, %d jobs in flight", n)
	}
	if _, err := c.CreateSession(client.SessionConfig{}); err == nil {
		t.Fatal("draining server accepted a new session")
	} else if se, ok := err.(*client.StatusError); !ok || se.Code != 503 {
		t.Fatalf("draining create error = %v, want 503", err)
	}
}

// TestDrainJournalsSessionClose checks that a session closed by the drain
// leaves the same journal trail as one closed on request: one session_open
// and one session_close each.
func TestDrainJournalsSessionClose(t *testing.T) {
	srv, c, shutdown := newTestServer(t, server.Config{})
	for i := 0; i < 3; i++ {
		if _, err := c.CreateSession(client.SessionConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	shutdown()
	count := map[recorder.Kind]int{}
	for _, e := range srv.Recorder().Snapshot() {
		count[e.Kind]++
	}
	if count[recorder.KindSessionOpen] != 3 || count[recorder.KindSessionClose] != 3 {
		t.Errorf("journal holds %d session_open and %d session_close, want 3 and 3",
			count[recorder.KindSessionOpen], count[recorder.KindSessionClose])
	}
}

// TestBadWorkloadRejected checks strict decoding surfaces as 400 and a
// batch failure latches the session as failed (409 on the next submit).
func TestBadWorkloadRejected(t *testing.T) {
	_, c, shutdown := newTestServer(t, server.Config{})
	defer shutdown()
	sess, err := c.CreateSession(client.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := sess.Close(); err != nil {
			t.Error(err)
		}
	}()

	bad := &wire.Workload{Version: 99}
	if err := sess.Submit(bad); err == nil {
		t.Fatal("server accepted an unsupported version")
	} else if se, ok := err.(*client.StatusError); !ok || se.Code != 400 {
		t.Fatalf("bad workload error = %v, want 400", err)
	}

	// Unknown algorithm at session creation is a 400, not a panic.
	if _, err := c.CreateSession(client.SessionConfig{Algorithm: "zbuffer"}); err == nil {
		t.Fatal("server accepted an unknown algorithm")
	} else if se, ok := err.(*client.StatusError); !ok || se.Code != 400 {
		t.Fatalf("unknown algorithm error = %v, want 400", err)
	}

	// Unknown region in a snapshot query is 404.
	if _, err := sess.Snapshot("nope", "v"); err == nil {
		t.Fatal("snapshot of unknown region succeeded")
	} else if se, ok := err.(*client.StatusError); !ok || se.Code != 404 {
		t.Fatalf("unknown region error = %v, want 404", err)
	}
}

// TestCheckErrorLeavesSessionUsable: a workload the checker refuses at
// apply time — a batch naming an undeclared region, a redeclaration —
// answers 400 and changes nothing, so the valid workload posted around
// them yields the snapshot it yields alone.
func TestCheckErrorLeavesSessionUsable(t *testing.T) {
	_, c, shutdown := newTestServer(t, server.Config{})
	defer shutdown()
	snapshot := func(sess *client.Session) [][][]float64 {
		var out [][][]float64
		for _, field := range []string{"up", "down"} {
			rows, err := sess.Snapshot("N", field)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, rows)
		}
		return out
	}
	alone, err := c.CreateSession(client.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := alone.Submit(wire.ExampleGraphsim(2)); err != nil {
		t.Fatal(err)
	}
	want := snapshot(alone)

	sess, err := c.CreateSession(client.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dangling := &wire.Workload{Version: wire.Version, Tasks: []wire.TaskDecl{
		{Name: "t", Accesses: []wire.AccessDecl{{Region: "nosuch", Field: "up", Privilege: "read"}}}}}
	for i, wl := range []*wire.Workload{dangling, wire.ExampleGraphsim(2), wire.ExampleGraphsim(2)} {
		err := sess.Submit(wl)
		if se, ok := err.(*client.StatusError); i != 1 && (!ok || se.Code != http.StatusBadRequest) {
			t.Fatalf("workload %d: %v, want the checker's 400", i, err)
		} else if i == 1 && err != nil {
			t.Fatalf("the valid workload after a refused one: %v", err)
		}
	}
	if got := snapshot(sess); !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot after the refused workloads differs from the valid workload's alone")
	}
}

// TestSnapshotNonFinite: a field that overflowed has no JSON form. The
// snapshot is a 500 that says where — at the parent commit it was a 200
// with an empty body — and the session keeps serving.
func TestSnapshotNonFinite(t *testing.T) {
	_, c, shutdown := newTestServer(t, server.Config{})
	defer shutdown()
	sess, err := c.CreateSession(client.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	blowUp := wire.TaskDecl{Name: "square", Accesses: []wire.AccessDecl{{Region: "r", Field: "v", Privilege: "write",
		Kernel: &wire.FuncSpec{Name: "affine", Args: map[string]float64{"scale": 1e300, "offset": 0}}}}}
	if err := sess.Submit(&wire.Workload{
		Version: wire.Version,
		Regions: []wire.RegionDecl{{Name: "r", Dim: 1, Space: [][]int64{{3, 6}}, Fields: []string{"v", "w"},
			Init: map[string]*wire.FuncSpec{"v": {Name: "fill", Args: map[string]float64{"value": 2}}}}},
		Tasks: []wire.TaskDecl{blowUp, blowUp},
	}); err != nil {
		t.Fatal(err)
	}
	_, err = sess.Snapshot("r", "v")
	se, ok := err.(*client.StatusError)
	if !ok || se.Code != 500 {
		t.Fatalf("snapshot of an overflowed field: %v, want a 500", err)
	}
	for _, want := range []string{`region "r"`, `field "v"`, "+Inf", "point [3]"} {
		if !strings.Contains(se.Message, want) {
			t.Errorf("error %q does not name %s", se.Message, want)
		}
	}
	if _, err := sess.Checkpoint(); err == nil || !strings.Contains(err.Error(), "500") {
		t.Errorf("checkpoint of an overflowed field: %v, want a 500", err)
	}
	if rows, err := sess.Snapshot("r", "w"); err != nil || len(rows) != 4 {
		t.Errorf("snapshot of the other field: %d rows, err %v", len(rows), err)
	}
	if err := sess.Close(); err != nil {
		t.Error(err)
	}
}
