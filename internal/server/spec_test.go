package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"visibility"
	"visibility/internal/algo"
	"visibility/internal/apps/stencil"
	"visibility/internal/harness"
	"visibility/internal/server"
	"visibility/internal/wire"
)

// post sends body to target on srv's handler and returns the status and
// the response body.
func post(t *testing.T, srv *server.Server, target, body string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, strings.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// TestOneStackRejection checks that the three ways to ask for an
// analysis stack — the library, the experiment harness and the service —
// refuse an unknown algorithm, the naive painter's "paint-naive"
// included, in the same words, algo.Spec.Check's. The service refuses
// any key but algorithm and autotrace before it is a stack at all
// (TestAutotraceTracingExclusive).
func TestOneStackRejection(t *testing.T) {
	srv, _, shutdown := newTestServer(t, server.Config{})
	defer shutdown()

	for _, name := range []string{"zbuffer", "paint-naive"} {
		_, err := algo.Spec{Algorithm: name, AutoTrace: true}.Check()
		if err == nil {
			t.Fatalf("Check accepted %q", name)
		}
		want := err.Error()
		if !strings.Contains(want, "[paint raycast warnock]") {
			t.Errorf("Check(%q) = %q, which does not list the three algorithms", name, want)
		}

		var lib string
		func() {
			defer func() { lib = fmt.Sprint(recover()) }()
			visibility.New(visibility.Config{Algorithm: name, AutoTrace: true})
		}()
		_, herr := harness.Run(harness.Config{
			App: stencil.New, AppName: "stencil", Algorithm: name, Nodes: 1, AutoTrace: true,
		})
		code, resp := post(t, srv, "/v1/sessions", `{"algorithm":"`+name+`","autotrace":true}`)
		var served struct{ Error string }
		if err := json.Unmarshal([]byte(resp), &served); err != nil || code != http.StatusBadRequest {
			t.Errorf("POST /v1/sessions %s: %d %s, want a 400", name, code, resp)
		}
		for surface, got := range map[string]string{
			"visibility.New":    lib,
			"harness.Run":       fmt.Sprint(herr),
			"POST /v1/sessions": served.Error,
		} {
			if !strings.Contains(got, want) {
				t.Errorf("%s %s: %q does not carry %q", name, surface, got, want)
			}
		}
	}

	// The creation body itself: empty means all defaults; cut short,
	// carrying any key but algorithm and autotrace, or followed by
	// anything but white space is a 400.
	for body, want := range map[string]int{
		"":                                      http.StatusCreated,
		`{"algorithm":`:                         http.StatusBadRequest,
		`{"tracing":true}`:                      http.StatusBadRequest,
		`{"shards":2}`:                          http.StatusBadRequest,
		`{"algorithm":"raycast","workers":2}`:   http.StatusBadRequest,
		`{"algorithm":"warnock","autotrace":1}`: http.StatusBadRequest,
		`{}{"algorithm":"nope"}`:                http.StatusBadRequest,
		`{} garbage`:                            http.StatusBadRequest,
		`{"algorithm":"raycast"}]`:              http.StatusBadRequest,
		"{\"algorithm\":\"paint\"}\n":           http.StatusCreated,
		`{"algorithm":"paint-naive"}`:           http.StatusBadRequest,
	} {
		if code, _ := post(t, srv, "/v1/sessions", body); code != want {
			t.Errorf("POST /v1/sessions with body %q: status %d, want %d", body, code, want)
		}
	}
}

// TestSessionRequestKeys pins the two things a session can be asked for
// — algorithm and autotrace — through creation, listing and the restore
// query, where any other key is a 400.
func TestSessionRequestKeys(t *testing.T) {
	srv, c, shutdown := newTestServer(t, server.Config{})
	defer shutdown()
	if code, resp := post(t, srv, "/v1/sessions", `{"algorithm":"warnock","autotrace":true}`); code != http.StatusCreated {
		t.Fatalf("POST /v1/sessions warnock+autotrace: %d %s, want 201", code, resp)
	}
	infos, err := c.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Algorithm != "warnock" || !infos[0].Autotrace {
		t.Fatalf("session list = %+v, want one autotraced warnock session", infos)
	}

	sess := c.Session(infos[0].ID)
	if err := sess.Submit(wire.ExampleGraphsim(2)); err != nil {
		t.Fatal(err)
	}
	ckpt, err := sess.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"tracing=true", "shards=2", "algorithm=raycast&workers=2", "autotrace=maybe"} {
		if code, resp := post(t, srv, "/v1/sessions/restore?"+q, string(ckpt)); code != http.StatusBadRequest {
			t.Errorf("restore ?%s: %d %s, want 400", q, code, resp)
		}
	}
	// The naive painter is the oracle, not a served algorithm: restoring
	// onto it is refused with the three a session accepts, and leaves no
	// session behind.
	code, resp := post(t, srv, "/v1/sessions/restore?algorithm=paint-naive", string(ckpt))
	if code != http.StatusBadRequest || !strings.Contains(resp, "[paint raycast warnock]") {
		t.Errorf("restore ?algorithm=paint-naive: %d %s, want a 400 listing paint, raycast and warnock", code, resp)
	}
	if infos, err := c.Sessions(); err != nil || len(infos) != 1 {
		t.Errorf("after the refused restores: sessions %+v (%v), want only the warnock session", infos, err)
	}
	if code, resp := post(t, srv, "/v1/sessions/restore?algorithm=paint&autotrace=true", string(ckpt)); code != http.StatusCreated {
		t.Errorf("restore paint+autotrace: %d %s, want 201", code, resp)
	}
}

// FuzzSessionRequest drives arbitrary creation bodies and restore queries
// through the handler. Each request ends in a 201 naming a registered
// algorithm or in a 4xx — never a 5xx, and never a panic.
func FuzzSessionRequest(f *testing.F) {
	for _, body := range []string{`{}{"algorithm":"nope"}`, `{} garbage`, `{"algorithm":"raycast"}]`} {
		f.Add(body, "algorithm=warnock&autotrace=true")
	}
	f.Add(`{"algorithm":"paint","autotrace":true}`, "autotrace=maybe")

	rt := visibility.New(visibility.Config{})
	if _, err := wire.NewEnv(rt).Apply(wire.ExampleQuickstart()); err != nil {
		f.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := rt.Checkpoint(&ckpt); err != nil {
		f.Fatal(err)
	}
	rt.Close()
	srv := server.New(server.Config{IdleTimeout: -1})
	f.Cleanup(func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			f.Errorf("shutdown: %v", err)
		}
	})

	f.Fuzz(func(t *testing.T, body, query string) {
		restore := httptest.NewRequest(http.MethodPost, "/v1/sessions/restore", bytes.NewReader(ckpt.Bytes()))
		restore.URL.RawQuery = query
		for _, req := range []*http.Request{
			httptest.NewRequest(http.MethodPost, "/v1/sessions", strings.NewReader(body)),
			restore,
		} {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusCreated {
				if rec.Code < 400 || rec.Code >= 500 {
					t.Errorf("%s %q: status %d, want 201 or a 4xx: %s", req.URL.Path, req.URL.RawQuery, rec.Code, rec.Body)
				}
				continue
			}
			var created struct{ ID, Algorithm string }
			if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
				t.Fatal(err)
			}
			if _, err := algo.Lookup(created.Algorithm); err != nil {
				t.Errorf("%s created a session running %q: %v", req.URL.Path, created.Algorithm, err)
			}
			del := httptest.NewRecorder()
			srv.Handler().ServeHTTP(del, httptest.NewRequest(http.MethodDelete, "/v1/sessions/"+created.ID, nil))
			if del.Code != http.StatusNoContent {
				t.Fatalf("deleting %s: status %d", created.ID, del.Code)
			}
		}
	})
}
