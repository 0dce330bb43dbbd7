package server_test

import (
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

// TestOneStackRejection checks that the two in-process ways to ask for an
// analysis stack — the library and the experiment harness — refuse an
// illegal one in the same words, algo.Spec.Check's. The service refuses
// any key but algorithm and autotrace before it is a stack at all
// (TestAutotraceTracingExclusive).
func TestOneStackRejection(t *testing.T) {
	_, err := algo.Spec{Algorithm: "zbuffer", AutoTrace: true}.Check()
	if err == nil {
		t.Fatal("Check accepted an unknown algorithm")
	}
	want := err.Error()

	var lib string
	func() {
		defer func() { lib = fmt.Sprint(recover()) }()
		visibility.New(visibility.Config{Algorithm: "zbuffer", AutoTrace: true})
	}()
	_, herr := harness.Run(harness.Config{
		App: stencil.New, AppName: "stencil", Algorithm: "zbuffer", Nodes: 1, AutoTrace: true,
	})
	for surface, got := range map[string]string{
		"visibility.New": lib,
		"harness.Run":    fmt.Sprint(herr),
	} {
		if !strings.Contains(got, want) {
			t.Errorf("%s: %q does not carry %q", surface, got, want)
		}
	}

	srv, _, shutdown := newTestServer(t, server.Config{})
	defer shutdown()

	// The creation body itself: empty means all defaults; cut short or
	// carrying any key but algorithm and autotrace is a 400.
	for body, want := range map[string]int{
		"":                                      http.StatusCreated,
		`{"algorithm":`:                         http.StatusBadRequest,
		`{"tracing":true}`:                      http.StatusBadRequest,
		`{"shards":2}`:                          http.StatusBadRequest,
		`{"algorithm":"raycast","workers":2}`:   http.StatusBadRequest,
		`{"algorithm":"warnock","autotrace":1}`: http.StatusBadRequest,
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
	if code, resp := post(t, srv, "/v1/sessions/restore?algorithm=paint&autotrace=true", string(ckpt)); code != http.StatusCreated {
		t.Errorf("restore paint+autotrace: %d %s, want 201", code, resp)
	}
}
