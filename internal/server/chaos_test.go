package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"visibility/internal/fault"
	"visibility/internal/server"
	"visibility/internal/server/client"
	"visibility/internal/wire"
)

// tenantRows runs n sequentially created sessions through the same
// workload and returns each tenant's snapshot of N/up as marshaled JSON
// (sequential creation pins session seq numbers 1..n, which is what lets
// a fault plan target one tenant deterministically). A nil error slot
// means the tenant completed; the caller decides which errors are
// expected.
func tenantRows(t *testing.T, c *client.Client, n int) ([][]byte, []*client.Session, []error) {
	t.Helper()
	wl := wire.ExampleGraphsim(3)
	rows := make([][]byte, n)
	sessions := make([]*client.Session, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		sess, err := c.CreateSession(client.SessionConfig{})
		if err != nil {
			t.Fatalf("creating session %d: %v", i, err)
		}
		sessions[i] = sess
		if err := sess.Submit(wl); err != nil {
			errs[i] = err
			continue
		}
		got, err := sess.Snapshot("N", "up")
		if err != nil {
			errs[i] = err
			continue
		}
		rows[i], err = json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
	}
	return rows, sessions, errs
}

// TestChaosWorkerKillIsolation crashes one tenant's job mid-stream with
// a targeted fault plan (server.worker.panic pinned to session seq 5 via
// arg=) and requires blast-radius isolation: the victim latches 409, the
// other seven tenants' snapshots are byte-identical to a fault-free run,
// and shutdown leaves no goroutines behind.
func TestChaosWorkerKillIsolation(t *testing.T) {
	baseline := runtime.NumGoroutine()

	const tenants = 8
	const victim = 5 // session seq, 1-based

	// Fault-free baseline.
	_, c0, shutdown0 := newTestServer(t, server.Config{})
	want, sessions, errs := tenantRows(t, c0, tenants)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fault-free tenant %d: %v", i, err)
		}
	}
	for _, s := range sessions {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	shutdown0()

	// Same workloads with the victim's first job crashed.
	inj, err := fault.NewFromString("seed=1;server.worker.panic=every=1,max=1,arg=5")
	if err != nil {
		t.Fatal(err)
	}
	srv, c, shutdown := newTestServer(t, server.Config{Faults: inj})
	got, sessions, errs := tenantRows(t, c, tenants)

	for i := 0; i < tenants; i++ {
		seq := i + 1
		if seq == victim {
			continue
		}
		if errs[i] != nil {
			t.Fatalf("tenant seq %d caught in victim's blast radius: %v", seq, errs[i])
		}
		if string(got[i]) != string(want[i]) {
			t.Fatalf("tenant seq %d snapshot diverges from fault-free run\nfaulted:   %s\nfault-free: %s", seq, got[i], want[i])
		}
	}
	if n := inj.Fires(fault.WorkerPanic); n != 1 {
		t.Fatalf("worker panic fired %d times, want exactly 1", n)
	}

	// The victim's crashed job never applied its workload, and the crash is
	// latched: the next submission must be refused with 409, not retried
	// into a half-built session.
	if err := sessions[victim-1].Submit(wire.ExampleQuickstart()); err == nil {
		t.Fatal("failed session accepted another workload")
	} else if se, ok := err.(*client.StatusError); !ok || se.Code != 409 {
		t.Fatalf("failed-session submit error = %v, want 409", err)
	}

	for _, s := range sessions {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if n := srv.SessionCount(); n != 0 {
		t.Fatalf("%d sessions remain after close", n)
	}
	if n := srv.InFlight(); n != 0 {
		t.Fatalf("%d jobs in flight after close", n)
	}
	shutdown()

	// Leak ledger: the victim's crashed request unwound by panic
	// recovery, not by leaking; everything unwinds.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCrashedJobAnswers409: a request whose own job crashes answers with
// the session's 409 — the failure, the recorder window and the dump path —
// never as if its job had run (a 200 with an empty checkpoint or null
// metrics, a 404 for a region the crash kept it from resolving). Each
// endpoint gets a fresh server whose plan crashes session 1's first job.
func TestCrashedJobAnswers409(t *testing.T) {
	for _, ep := range []struct{ method, path string }{
		{"GET", "checkpoint"},
		{"GET", "metrics"},
		{"GET", "snapshot?region=N&field=up"},
		{"GET", "graph?region=N"},
		{"GET", "critpath"},
		{"GET", "explain?task=0"},
		{"POST", "workloads"},
	} {
		t.Run(strings.SplitN(ep.path, "?", 2)[0], func(t *testing.T) {
			inj, err := fault.NewFromString("seed=1;server.worker.panic=every=1,max=1,arg=1")
			if err != nil {
				t.Fatal(err)
			}
			srv := server.New(server.Config{IdleTimeout: -1, RecorderDir: t.TempDir(), Faults: inj})
			hs := httptest.NewServer(srv.Handler())
			defer hs.Close()
			defer func() {
				if err := srv.Shutdown(t.Context()); err != nil {
					t.Errorf("shutdown: %v", err)
				}
			}()
			sess, err := client.New(hs.URL).CreateSession(client.SessionConfig{})
			if err != nil {
				t.Fatal(err)
			}
			var body bytes.Buffer
			if ep.method == "POST" {
				if err := wire.Encode(&body, wire.ExampleGraphsim(1)); err != nil {
					t.Fatal(err)
				}
			}
			req, err := http.NewRequest(ep.method, hs.URL+"/v1/sessions/"+sess.ID+"/"+ep.path, &body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var got struct {
				Error    string            `json:"error"`
				Recorder []json.RawMessage `json:"recorder"`
				Dump     string            `json:"recorder_dump"`
			}
			err = json.NewDecoder(resp.Body).Decode(&got)
			if err != nil || resp.StatusCode != http.StatusConflict || !strings.Contains(got.Error, "session failed") {
				t.Fatalf("crashed %s %s: status %d %q (%v), want the session's 409", ep.method, ep.path, resp.StatusCode, got.Error, err)
			}
			if len(got.Recorder) == 0 || got.Dump == "" {
				t.Errorf("409 carries %d recorder events and dump path %q, want both", len(got.Recorder), got.Dump)
			}
			if n := inj.Fires(fault.WorkerPanic); n != 1 {
				t.Errorf("job panic fired %d times, want 1", n)
			}
		})
	}
}

// TestFailedSessionAnswers409: once a session's job has crashed, every
// route that would run a job answers the session's 409 without running
// it — no job_start is journaled for them — so no query reads, and no
// checkpoint exports, the half-built state the crash left behind.
func TestFailedSessionAnswers409(t *testing.T) {
	inj, err := fault.NewFromString("seed=1;server.worker.panic=every=1,max=1,arg=1")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{IdleTimeout: -1, RecorderDir: t.TempDir(), Faults: inj})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer func() {
		if err := srv.Shutdown(t.Context()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	sess, err := client.New(hs.URL).CreateSession(client.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(wire.ExampleGraphsim(1)); err == nil {
		t.Fatal("the crashed workload was accepted")
	}
	c := client.New(hs.URL)
	jobStarts := func() int {
		lines, err := c.DebugRecorder(100000)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, l := range lines {
			if strings.Contains(l, " job_start seq=1 ") {
				n++
			}
		}
		return n
	}
	if n := jobStarts(); n != 1 {
		t.Fatalf("%d job_start events for the session after its crash, want 1", n)
	}
	var wl bytes.Buffer
	if err := wire.Encode(&wl, wire.ExampleQuickstart()); err != nil {
		t.Fatal(err)
	}
	for _, ep := range []struct{ method, path string }{
		{"GET", "checkpoint"},
		{"GET", "metrics"},
		{"GET", "snapshot?region=N&field=up"},
		{"GET", "graph?region=N"},
		{"GET", "critpath"},
		{"GET", "critpath?format=dot"},
		{"GET", "explain?task=0"},
		{"POST", "workloads"},
	} {
		req, err := http.NewRequest(ep.method, hs.URL+"/v1/sessions/"+sess.ID+"/"+ep.path, bytes.NewReader(wl.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Error string `json:"error"`
			Dump  string `json:"recorder_dump"`
		}
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusConflict || !strings.Contains(got.Error, "session failed") || got.Dump == "" {
			t.Errorf("%s %s on a failed session: status %d %q, dump %q (%v), want the session's 409 with its dump path",
				ep.method, ep.path, resp.StatusCode, got.Error, got.Dump, err)
		}
	}
	if n := jobStarts(); n != 1 {
		t.Errorf("%d job_start events for the session after the queries, want 1: a failed session ran a job", n)
	}
}
