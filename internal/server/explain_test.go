package server_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"visibility/internal/server"
	"visibility/internal/server/client"
	"visibility/internal/wire"
)

// explainServer starts a fresh server with one graphsim session and
// returns the base URL, a client, the session, and the shutdown func.
// Fresh servers number sessions identically, so two calls produce
// sessions with the same id and paths compare byte-for-byte.
func explainServer(t *testing.T) (string, *client.Client, *client.Session, func()) {
	t.Helper()
	srv := server.New(server.Config{IdleTimeout: -1})
	hs := httptest.NewServer(srv.Handler())
	c := client.New(hs.URL)
	c.RetryWait = 10 * time.Millisecond
	sess, err := c.CreateSession(client.SessionConfig{Algorithm: "raycast"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(wire.ExampleGraphsim(4)); err != nil {
		t.Fatal(err)
	}
	return hs.URL, c, sess, func() {
		if err := srv.Shutdown(t.Context()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		hs.Close()
	}
}

func rawGET(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// TestExplainByteIdentical is the determinism acceptance gate for the
// explain engine: two fresh servers run the same workload, and the raw
// response bytes of /explain, /critpath, and the DOT rendering must be
// identical — no wall-clock, map order, or pointer identity anywhere in
// the output.
func TestExplainByteIdentical(t *testing.T) {
	fetch := func() map[string][]byte {
		base, _, sess, shutdown := explainServer(t)
		defer shutdown()
		paths := []string{
			"/v1/sessions/" + sess.ID + "/explain?task=5",
			"/v1/sessions/" + sess.ID + "/explain?task=7&src=1",
			"/v1/sessions/" + sess.ID + "/critpath?k=3",
			"/v1/sessions/" + sess.ID + "/critpath?format=dot",
		}
		out := map[string][]byte{}
		for _, p := range paths {
			out[p] = rawGET(t, base+p)
		}
		return out
	}
	a, b := fetch(), fetch()
	for p, body := range a {
		if !bytes.Equal(body, b[p]) {
			t.Errorf("%s differs across identical runs:\nrun 1:\n%s\nrun 2:\n%s", p, body, b[p])
		}
	}
}

// TestExplainEdges checks the provenance content itself: every task in
// the graphsim stream explains each of its dependence edges with a
// non-empty reason, and a direct producer is reported as mustPrecede.
func TestExplainEdges(t *testing.T) {
	_, _, sess, shutdown := explainServer(t)
	defer shutdown()

	tasks, err := sess.Dependences("N")
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) == 0 {
		t.Fatal("no tasks")
	}
	explained := 0
	for _, ti := range tasks {
		ex, err := sess.Explain("N", ti.ID)
		if err != nil {
			t.Fatalf("explain task %d: %v", ti.ID, err)
		}
		if ex.Explain == nil {
			t.Fatalf("task %d: no explain body", ti.ID)
		}
		bySrc := map[int]bool{}
		for _, e := range ex.Explain.Edges {
			if e.Kind == "" {
				t.Errorf("task %d: edge from %d has empty kind", ti.ID, e.Src)
			}
			if e.Kind == "region" && e.Overlap == "" {
				t.Errorf("task %d: region edge from %d missing overlap: %+v", ti.ID, e.Src, e)
			}
			bySrc[e.Src] = true
		}
		for _, d := range ti.Deps {
			if d < 0 {
				continue
			}
			if !bySrc[d] {
				t.Errorf("task %d: dependence on %d has no provenance edge", ti.ID, d)
			}
			explained++
			why, err := sess.Why("N", d, ti.ID)
			if err != nil {
				t.Fatalf("why %d %d: %v", d, ti.ID, err)
			}
			if !why.MustPrecede {
				t.Errorf("direct producer %d of %d not reported as mustPrecede", d, ti.ID)
			}
		}
	}
	if explained == 0 {
		t.Fatal("graphsim produced no dependence edges to explain; the test checked nothing")
	}
}

// TestCritPathEndpoint sanity-checks the served profile against the
// graph it summarizes.
func TestCritPathEndpoint(t *testing.T) {
	_, _, sess, shutdown := explainServer(t)
	defer shutdown()

	sum, err := sess.CritPath("N", 3)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Tasks == 0 || sum.Length <= 0 || sum.Work < sum.Length {
		t.Fatalf("implausible summary: %+v", sum)
	}
	if len(sum.Path) == 0 {
		t.Fatal("empty critical path")
	}
	if len(sum.Top) > 3 {
		t.Errorf("k=3 returned %d contributors", len(sum.Top))
	}
	var pathSum float64
	for _, step := range sum.Path {
		pathSum += step.Weight
	}
	if pathSum != sum.Length {
		t.Errorf("path weights sum to %v, makespan is %v", pathSum, sum.Length)
	}
	dot, err := sess.CritDOT("N")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot, "color=red") {
		t.Error("critical-path DOT has no highlighted nodes")
	}
}

// TestOneChannelPerQuestion checks that the routes duplicating another
// channel are gone: spans are exported only by /debug/trace, and critical
// paths and the highlighted DAG only per session, by /critpath.
func TestOneChannelPerQuestion(t *testing.T) {
	base, _, sess, shutdown := explainServer(t)
	defer shutdown()

	var paths []string
	for _, what := range []string{"spans", "critpath"} {
		paths = append(paths, "/debug/"+what)
	}
	for _, what := range []string{"spans", "dot"} {
		paths = append(paths, "/v1/sessions/"+sess.ID+"/"+what)
	}
	for _, path := range paths {
		// A region the session has, so only a missing route can be the 404.
		resp, err := http.Get(base + path + "?region=N")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound || !strings.HasPrefix(string(body), "404 page not found") {
			t.Errorf("GET %s: %d %.60s, want the mux's 404", path, resp.StatusCode, body)
		}
	}
}
