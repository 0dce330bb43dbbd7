package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"visibility"
	"visibility/internal/wire"
)

// park runs a request whose job is fn on a goroutine of its own, as a
// handler would, and returns the channel its answer arrives on.
func park(srv *Server, s *session, fn func()) <-chan error {
	answer := make(chan error, 1)
	go func() {
		answer <- srv.do(s, request{}, func(*visibility.Runtime, *wire.Env) error {
			fn()
			return nil
		})
	}()
	return answer
}

// journal returns the recorder's event lines without their timestamps.
func journal(srv *Server) []string {
	lines := srv.rec.Lines(math.MaxInt)[1:]
	for i, l := range lines {
		_, lines[i], _ = strings.Cut(l, " ")
	}
	return lines
}

// count returns how many events in lines are event.
func count(lines []string, event string) int {
	n := 0
	for _, l := range lines {
		if l == event {
			n++
		}
	}
	return n
}

// waitQueued waits until n admitted requests wait for s.
func waitQueued(t *testing.T, s *session, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); s.describe().Queued != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests wait for the session, want %d", s.describe().Queued, n)
		}
	}
}

func createSessionHTTP(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Post(url+"/v1/sessions", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session: status %d", resp.StatusCode)
	}
	var body struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.ID
}

func postWorkload(t *testing.T, url, id string, wl *wire.Workload) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.Encode(&buf, wl); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/sessions/"+id+"/workloads", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestBackpressureSessionQueue fills one session's bounded queue behind a
// request deliberately blocked while it holds the session and checks
// overload surfaces as 429 + Retry-After — and that nothing leaks once the
// queue drains: in-flight and session counts return to zero, and every
// goroutine exits.
func TestBackpressureSessionQueue(t *testing.T) {
	baseline := runtime.NumGoroutine()

	srv := New(Config{MaxQueue: 2, MaxInFlight: 64, IdleTimeout: -1})
	hs := httptest.NewServer(srv.Handler())
	id := createSessionHTTP(t, hs.URL)
	s := srv.session(id)
	if s == nil {
		t.Fatal("session not found internally")
	}

	// Park a request holding the session on a job we control.
	release := make(chan struct{})
	started := make(chan struct{})
	parked := park(srv, s, func() { close(started); <-release })
	<-started

	// Fill the queue to its cap.
	slots := make([]<-chan error, srv.cfg.MaxQueue)
	for i := range slots {
		slots[i] = park(srv, s, func() {})
	}
	waitQueued(t, s, srv.cfg.MaxQueue)

	// The next submission over HTTP must be rejected with the
	// backpressure contract, not buffered.
	resp := postWorkload(t, hs.URL, id, wire.ExampleQuickstart())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	resp.Body.Close()
	if got := srv.metrics.NewCounter("server/admission/rejected").Load(); got == 0 {
		t.Fatal("admission rejection not counted")
	}

	// Release the session; the queue drains and the same workload is now
	// admitted.
	close(release)
	if err := <-parked; err != nil {
		t.Fatal(err)
	}
	for i, slot := range slots {
		if err := <-slot; err != nil {
			t.Fatalf("queue slot %d refused: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.InFlight() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight jobs never drained")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp = postWorkload(t, hs.URL, id, wire.ExampleQuickstart())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-drain submit: status %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()

	// Tear down: DELETE waits for the runtime's release, then the process is
	// clean.
	req, _ := http.NewRequest("DELETE", hs.URL+"/v1/sessions/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", dresp.StatusCode)
	}
	if n := srv.SessionCount(); n != 0 {
		t.Fatalf("%d sessions after delete", n)
	}
	if n := srv.InFlight(); n != 0 {
		t.Fatalf("%d jobs in flight after delete", n)
	}
	if err := srv.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	hs.Close()
	http.DefaultClient.CloseIdleConnections()

	// No goroutine leak: the requests, janitor, and runtime pools are gone.
	deadline = time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestBackpressureGlobal exhausts the global in-flight cap across two
// sessions: the second tenant is throttled by the process-wide bound even
// though its own queue is empty. A rejection leaves nothing behind: each
// 429 is counted and journaled once, no slot stays reserved, and once the
// cap frees the same tenant's next submit is admitted.
func TestBackpressureGlobal(t *testing.T) {
	srv := New(Config{MaxQueue: 8, MaxInFlight: 1, IdleTimeout: -1})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer func() {
		// Bounded: a leaked in-flight slot must fail the test, not hang
		// the drain.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()

	idA := createSessionHTTP(t, hs.URL)
	idB := createSessionHTTP(t, hs.URL)
	a, b := srv.session(idA), srv.session(idB)

	release := make(chan struct{})
	released := false
	free := func() {
		if !released {
			released = true
			close(release)
		}
	}
	defer free() // a failing check must not leave the request parked
	started := make(chan struct{})
	parked := park(srv, a, func() { close(started); <-release })
	<-started

	// Session B has a free queue, but the global cap is spent.
	const bounces = 3
	for i := 0; i < bounces; i++ {
		resp := postWorkload(t, hs.URL, idB, wire.ExampleQuickstart())
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("global overload %d: status %d, want 429", i, resp.StatusCode)
		}
	}
	if n := srv.InFlight(); n != 1 {
		t.Fatalf("%d jobs in flight after %d rejections, want only the parked one", n, bounces)
	}
	if got := srv.metrics.NewCounter("server/admission/rejected").Load(); got != bounces {
		t.Fatalf("server/admission/rejected = %d, want %d", got, bounces)
	}
	if journaled := count(journal(srv), fmt.Sprintf("admit_reject seq=%d reason=global_cap", b.seq)); journaled != bounces {
		t.Fatalf("%d admit_reject events for session B at the global cap, want %d", journaled, bounces)
	}

	// Free the cap: everything drains, and B's next submit is admitted.
	free()
	if err := <-parked; err != nil {
		t.Fatal(err)
	}
	waitDrained := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for srv.InFlight() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%d jobs still in flight", srv.InFlight())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitDrained()
	resp := postWorkload(t, hs.URL, idB, wire.ExampleQuickstart())
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after the cap freed: status %d, want 202", resp.StatusCode)
	}
	waitDrained()
}

// TestSessionLimit bounds concurrent sessions.
func TestSessionLimit(t *testing.T) {
	srv := New(Config{MaxSessions: 2, IdleTimeout: -1})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer func() {
		if err := srv.Shutdown(t.Context()); err != nil {
			t.Error(err)
		}
	}()

	createSessionHTTP(t, hs.URL)
	createSessionHTTP(t, hs.URL)
	resp, err := http.Post(hs.URL+"/v1/sessions", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit create: status %d, want 429", resp.StatusCode)
	}
}

// TestMetricsEndpointShape checks /metrics merges the server registry
// with per-session registries and stays parseable JSON.
func TestMetricsEndpointShape(t *testing.T) {
	srv := New(Config{IdleTimeout: -1})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer func() {
		if err := srv.Shutdown(t.Context()); err != nil {
			t.Error(err)
		}
	}()

	id := createSessionHTTP(t, hs.URL)
	resp := postWorkload(t, hs.URL, id, wire.ExampleQuickstart())
	resp.Body.Close()

	// The batch is applied before its 202, so the analyzer has counted it.
	var body struct {
		Server   map[string]int64            `json:"server"`
		Sessions map[string]map[string]int64 `json:"sessions"`
	}
	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(mresp.Body).Decode(&body)
	mresp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics is not parseable: %v", err)
	}
	if body.Server["server/http/workloads/requests"] == 0 {
		t.Errorf("endpoint request counter missing: %v", body.Server)
	}
	if body.Server["server/http/workloads/latency_us/count"] == 0 {
		t.Errorf("endpoint latency histogram missing: %v", body.Server)
	}
	if _, ok := body.Sessions[id]; !ok {
		t.Errorf("session %s missing from /metrics", id)
	}
	if body.Sessions[id]["analyzer/cells/launches"] == 0 {
		t.Errorf("session registry missing analyzer counters: %v", body.Sessions[id])
	}
}

// TestBodyAndVolumeLimits pins the admission limits that need no queue: a
// workload whose 90 bytes declare 10¹² points is refused by the checker
// before anything is allocated, a body over its endpoint's limit is a 413,
// and the server keeps serving after both.
func TestBodyAndVolumeLimits(t *testing.T) {
	srv := New(Config{IdleTimeout: -1})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer func() {
		if err := srv.Shutdown(t.Context()); err != nil {
			t.Error(err)
		}
	}()
	id := createSessionHTTP(t, hs.URL)
	post := func(path string, body io.Reader) (int, string) {
		t.Helper()
		resp, err := http.Post(hs.URL+path, "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	workloads := "/v1/sessions/" + id + "/workloads"

	// The same region declared by a workload and by a checkpoint, which
	// differ only in their version.
	bomb := `"regions":[{"name":"r","dim":1,"space":[[0,1099511627776]],"fields":["v"]}]}`
	for path, version := range map[string]string{workloads: "1", "/v1/sessions/restore": "2"} {
		if got, msg := post(path, strings.NewReader(`{"version":`+version+`,`+bomb)); got != http.StatusBadRequest || !strings.Contains(msg, "exceeds 4194304 values") {
			t.Errorf("10^12 points to %s: status %d %s, want 400 naming the budget", path, got, msg)
		}
	}

	// Whitespace is a legal JSON prefix, so the decoder reads up to the
	// limit. (The 64 MiB limit of the other two POST endpoints takes the
	// race detector a quarter of a minute to reach; CI's visserve smoke
	// step posts that body instead.)
	if got, _ := post("/v1/sessions", strings.NewReader(strings.Repeat(" ", maxSessionBody+1))); got != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize session body: status %d, want 413", got)
	}

	resp := postWorkload(t, hs.URL, id, wire.ExampleQuickstart())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("workload after the refusals: status %d, want 202", resp.StatusCode)
	}
}

// TestWriteJSONUnrenderable: the body is rendered before the status is
// committed, so a value with no JSON form is a 500 with the reason and
// bodies are one compact line.
func TestWriteJSONUnrenderable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.Inf(1)})
	if got := rec.Body.String(); rec.Code != http.StatusInternalServerError || !strings.Contains(got, "unsupported value") {
		t.Errorf("unrenderable body: status %d %q, want a 500 with the reason", rec.Code, got)
	}
	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusAccepted, map[string]any{"b": []int{1, 2}, "a": "<x>"})
	if got, want := rec.Body.String(), `{"a":"\u003cx\u003e","b":[1,2]}`+"\n"; rec.Code != http.StatusAccepted || got != want {
		t.Errorf("body: status %d %q, want 202 %q", rec.Code, got, want)
	}
}

// TestIdleExpirySparesRunningJob: a job that runs longer than IdleTimeout
// keeps its session alive. Its request holds the session and waits for
// nothing, so an empty queue must not read as idle, and the job's end
// counts as use.
func TestIdleExpirySparesRunningJob(t *testing.T) {
	srv := New(Config{IdleTimeout: 50 * time.Millisecond})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Shutdown(t.Context())
	id := createSessionHTTP(t, hs.URL)
	s := srv.session(id)
	if s == nil {
		t.Fatal("session not found internally")
	}

	finished := park(srv, s, func() { <-time.After(300 * time.Millisecond) })
	for running := true; running; {
		select {
		case err := <-finished:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		case <-time.After(10 * time.Millisecond):
		}
		if srv.session(id) != s {
			t.Fatalf("session %s expired while a request was running a job", id)
		}
	}
}
