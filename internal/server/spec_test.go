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
	"visibility/internal/server/client"
)

// TestOneStackRejection checks that the three ways to ask for an analysis
// stack — the library, the experiment harness, the service — refuse an
// illegal one in the same words: algo.Spec.Check's.
func TestOneStackRejection(t *testing.T) {
	_, err := algo.Spec{Tracing: true, AutoTrace: true}.Check()
	if err == nil {
		t.Fatal("Check accepted Tracing with AutoTrace")
	}
	want := err.Error()

	var lib string
	func() {
		defer func() { lib = fmt.Sprint(recover()) }()
		visibility.New(visibility.Config{Tracing: true, AutoTrace: true})
	}()
	_, herr := harness.Run(harness.Config{
		App: stencil.New, AppName: "stencil", Algorithm: "raycast", Nodes: 1,
		Tracing: true, AutoTrace: true,
	})
	srv, c, shutdown := newTestServer(t, server.Config{})
	defer shutdown()
	_, serr := c.CreateSession(client.SessionConfig{Tracing: true, AutoTrace: true})

	for surface, got := range map[string]string{
		"visibility.New":    lib,
		"harness.Run":       fmt.Sprint(herr),
		"POST /v1/sessions": fmt.Sprint(serr),
	} {
		if !strings.Contains(got, want) {
			t.Errorf("%s: %q does not carry %q", surface, got, want)
		}
	}
	if se, ok := serr.(*client.StatusError); !ok || se.Code != 400 {
		t.Errorf("service rejection = %v, want a 400", serr)
	}

	// The creation body itself: empty means all defaults, cut short is a 400.
	raw := httptest.NewServer(srv.Handler())
	defer raw.Close()
	for body, want := range map[string]int{"": http.StatusCreated, `{"algorithm":`: http.StatusBadRequest} {
		resp, err := http.Post(raw.URL+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("POST /v1/sessions with body %q: status %d, want %d", body, resp.StatusCode, want)
		}
	}
}
