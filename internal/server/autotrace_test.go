package server_test

import (
	"net/http"
	"reflect"
	"strings"
	"testing"

	"visibility"
	"visibility/internal/server"
	"visibility/internal/server/client"
	"visibility/internal/wire"
)

// TestE2EAutotraceSession runs the Figure 1 workload in a session with
// automatic tracing enabled and requires the served snapshots to equal
// an untraced in-process run value for value — the crosscheck that
// autotracing changes performance, never results.
func TestE2EAutotraceSession(t *testing.T) {
	_, c, shutdown := newTestServer(t, server.Config{})
	defer shutdown()

	wl := wire.ExampleGraphsim(12)
	sess, err := c.CreateSession(client.SessionConfig{Algorithm: "raycast", AutoTrace: true})
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
			t.Fatalf("field %s: autotraced snapshot diverges from untraced in-process run", field)
		}
	}

	// The session's metrics surface proves tracing actually engaged.
	snap, err := sess.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if snap["autotrace/candidates"] == 0 {
		t.Errorf("no autotrace candidate committed: %v", snap)
	}
	if snap["trace/replayed"] == 0 {
		t.Errorf("no launches replayed: %v", snap)
	}

	// The sessions listing reports the mode.
	infos, err := c.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, info := range infos {
		if info.ID == sess.ID {
			found = true
			if !info.Autotrace {
				t.Errorf("session info = %+v, want autotrace on", info)
			}
		}
	}
	if !found {
		t.Fatalf("session %s missing from listing", sess.ID)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAutotraceTracingExclusive checks the server rejects a session
// asking for both bracketed and automatic tracing. Tracing is no session
// option, so the body fails as an unknown field.
func TestAutotraceTracingExclusive(t *testing.T) {
	srv, _, shutdown := newTestServer(t, server.Config{})
	defer shutdown()
	if code, body := post(t, srv, "/v1/sessions", `{"tracing":true,"autotrace":true}`); code != http.StatusBadRequest || !strings.Contains(body, `unknown field \"tracing\"`) {
		t.Errorf("POST /v1/sessions: %d %s, want a 400 naming the unknown field", code, body)
	}
}

// TestAutotraceRestoreQuery checks the restore path's autotrace opt-in.
func TestAutotraceRestoreQuery(t *testing.T) {
	_, c, shutdown := newTestServer(t, server.Config{})
	defer shutdown()
	sess, err := c.CreateSession(client.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(wire.ExampleGraphsim(2)); err != nil {
		t.Fatal(err)
	}
	ckpt, err := sess.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := c.Restore(ckpt, client.SessionConfig{AutoTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	infos, err := c.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		if info.ID == restored.ID && !info.Autotrace {
			t.Errorf("restored session lost the autotrace flag: %+v", info)
		}
	}
}
