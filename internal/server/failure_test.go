package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"visibility/internal/fault"
	"visibility/internal/wire"
)

// TestRequestFailures is the endpoint × failure table. Each cell runs on a
// fresh server whose one session has applied the graphsim workload, sends
// one request that cannot or must not run, and checks its status and the
// session's state after it:
//   - a bad request (the checker's 400, an unknown name's 404, a
//     parameter's 400) leaves the session usable: the same route's good
//     request answers next;
//   - a panic in the request's own job answers the session's 409 and
//     latches the session failed; the dump and the 409 body's recorder
//     lines end in the job's start, the injected fault and the failure;
//   - a closing session answers 409 without running a job, journals the
//     reject, and releases its runtime;
//   - a full queue answers 429 with Retry-After, journals the reject, and
//     the session serves the good request once the queue drains;
//   - a failed session answers its 409, with the dump path, without
//     running a job (no job_start is journaled for it).
func TestRequestFailures(t *testing.T) {
	encode := func(wl *wire.Workload) []byte {
		var buf bytes.Buffer
		if err := wire.Encode(&buf, wl); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// The good workload launches over the regions setup declared; the bad
	// one names a region nobody declared.
	goodWorkload := encode(&wire.Workload{Version: wire.Version, Tasks: wire.ExampleGraphsim(1).Tasks})
	badWorkload := encode(&wire.Workload{Version: wire.Version, Tasks: []wire.TaskDecl{
		{Name: "t", Accesses: []wire.AccessDecl{{Region: "nosuch", Field: "up", Privilege: "read"}}}}})

	type endpoint struct {
		name, route, method, good, bad string // bad: "" when the route takes no input to get wrong
		badStatus                      int
	}
	endpoints := []endpoint{
		{"workloads", "workloads", "POST", "workloads", "workloads", http.StatusBadRequest},
		{"snapshot", "snapshot", "GET", "snapshot?region=N&field=up", "snapshot?region=nosuch&field=up", http.StatusNotFound},
		{"graph", "graph", "GET", "graph?region=N", "graph?region=nosuch", http.StatusNotFound},
		{"explain", "explain", "GET", "explain?task=0", "explain?task=x", http.StatusBadRequest},
		{"critpath", "critpath", "GET", "critpath", "critpath?k=0", http.StatusBadRequest},
		{"checkpoint", "checkpoint", "GET", "checkpoint", "", 0},
		{"metrics", "session_metrics", "GET", "metrics", "", 0},
	}

	type cell struct {
		srv *Server
		url string
		s   *session
		inj *fault.Injector
	}
	// setup starts a server (plan: its fault plan, "" for none) and a
	// session, and applies the graphsim workload to it; applied reports
	// whether the workload's job ran to completion.
	setup := func(t *testing.T, plan string, maxQueue int) (cell, bool) {
		var inj *fault.Injector
		if plan != "" {
			var err error
			if inj, err = fault.NewFromString(plan); err != nil {
				t.Fatal(err)
			}
		}
		srv := New(Config{IdleTimeout: -1, RecorderDir: t.TempDir(), Faults: inj, MaxQueue: maxQueue})
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { // t.Context is canceled before cleanups run
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Errorf("shutdown: %v", err)
			}
			hs.Close()
		})
		s := srv.session(createSessionHTTP(t, hs.URL))
		resp := postWorkload(t, hs.URL, s.id, wire.ExampleGraphsim(1))
		resp.Body.Close()
		return cell{srv, hs.URL, s, inj}, resp.StatusCode == http.StatusAccepted
	}
	send := func(t *testing.T, c cell, ep endpoint, path string, body []byte) (*http.Response, string) {
		t.Helper()
		req, err := http.NewRequest(ep.method, c.url+"/v1/sessions/"+c.s.id+"/"+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(raw)
	}
	good := func(t *testing.T, c cell, ep endpoint) {
		t.Helper()
		want := http.StatusOK
		if ep.method == "POST" {
			want = http.StatusAccepted
		}
		if resp, body := send(t, c, ep, ep.good, goodWorkload); resp.StatusCode != want {
			t.Errorf("good request after the failure: status %d %s, want %d", resp.StatusCode, body, want)
		}
	}
	jobStarts := func(c cell) int {
		n := 0
		for _, e := range journal(c.srv) {
			if strings.HasPrefix(e, fmt.Sprintf("job_start seq=%d ", c.s.seq)) {
				n++
			}
		}
		return n
	}
	rejected := func(t *testing.T, c cell, reason string) {
		t.Helper()
		if want := fmt.Sprintf("admit_reject seq=%d reason=%s", c.s.seq, reason); count(journal(c.srv), want) != 1 {
			t.Errorf("journal has no %q", want)
		}
	}
	failed := func(c cell) bool { return c.s.describe().Failed != "" }
	type conflict struct {
		Error    string   `json:"error"`
		Recorder []string `json:"recorder"`
		Dump     string   `json:"recorder_dump"`
	}
	sessionConflict := func(t *testing.T, resp *http.Response, body string) conflict {
		t.Helper()
		var got conflict
		if err := json.Unmarshal([]byte(body), &got); err != nil || resp.StatusCode != http.StatusConflict ||
			!strings.Contains(got.Error, "session failed") || got.Dump == "" {
			t.Errorf("status %d %s (%v), want the session's 409 with its dump path", resp.StatusCode, body, err)
		}
		return got
	}
	// endsWith checks the events of lines, timestamps dropped, end in want.
	endsWith := func(t *testing.T, what string, lines, want []string) {
		t.Helper()
		if len(lines) < len(want) {
			t.Fatalf("%s has %d lines, want at least %d", what, len(lines), len(want))
		}
		tail := lines[len(lines)-len(want):]
		for i, l := range tail {
			_, e, _ := strings.Cut(l, " ")
			if e != want[i] {
				t.Errorf("%s ends in %q, want %q", what, tail, want)
				return
			}
		}
	}

	for _, ep := range endpoints {
		t.Run(ep.name, func(t *testing.T) {
			t.Run("check error", func(t *testing.T) {
				if ep.bad == "" {
					t.Skip("the route takes no input to get wrong")
				}
				c, ok := setup(t, "", 0)
				if !ok {
					t.Fatal("setup workload refused")
				}
				if resp, body := send(t, c, ep, ep.bad, badWorkload); resp.StatusCode != ep.badStatus {
					t.Errorf("status %d %s, want %d", resp.StatusCode, body, ep.badStatus)
				}
				if failed(c) {
					t.Errorf("a bad request latched the session: %s", c.s.describe().Failed)
				}
				good(t, c, ep)
			})
			t.Run("panic", func(t *testing.T) {
				// The session's second job is this request's.
				c, ok := setup(t, "seed=1;server.worker.panic=every=2,max=1,arg=1", 0)
				if !ok {
					t.Fatal("setup workload refused")
				}
				resp, body := send(t, c, ep, ep.good, goodWorkload)
				got := sessionConflict(t, resp, body)
				if n := c.inj.Fires(fault.WorkerPanic); n != 1 || !failed(c) {
					t.Errorf("panic fired %d times, session failed %v; want 1, true", n, failed(c))
				}
				want := []string{
					fmt.Sprintf("job_start seq=%d route=%s", c.s.seq, ep.route),
					fmt.Sprintf("fault_inject site=server.worker.panic arg=%d", c.s.seq),
					fmt.Sprintf("worker_fail seq=%d", c.s.seq),
				}
				dump, err := os.ReadFile(got.Dump)
				if err != nil {
					t.Fatal(err)
				}
				endsWith(t, "the dump", strings.Split(strings.TrimSuffix(string(dump), "\n"), "\n"), want)
				endsWith(t, "the 409 body", got.Recorder, want)
			})
			t.Run("closing", func(t *testing.T) {
				c, ok := setup(t, "", 0)
				if !ok {
					t.Fatal("setup workload refused")
				}
				// The window a request that found the session before its
				// close began lands in.
				before := jobStarts(c)
				c.s.beginClose()
				resp, body := send(t, c, ep, ep.good, goodWorkload)
				if resp.StatusCode != http.StatusConflict || !strings.Contains(body, errSessionClosing.Error()) {
					t.Errorf("status %d %s, want 409 %q", resp.StatusCode, body, errSessionClosing)
				}
				if n := jobStarts(c) - before; n != 0 {
					t.Errorf("%d jobs started on a closing session", n)
				}
				rejected(t, c, "session_closing")
				<-c.s.done // the runtime is released
			})
			t.Run("busy", func(t *testing.T) {
				c, ok := setup(t, "", 1)
				if !ok {
					t.Fatal("setup workload refused")
				}
				release, started := make(chan struct{}), make(chan struct{})
				holder := park(c.srv, c.s, func() { close(started); <-release })
				<-started
				waiter := park(c.srv, c.s, func() {})
				waitQueued(t, c.s, 1)
				resp, body := send(t, c, ep, ep.good, goodWorkload)
				if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
					t.Errorf("status %d %s (Retry-After %q), want 429 with Retry-After", resp.StatusCode, body, resp.Header.Get("Retry-After"))
				}
				rejected(t, c, "session_queue")
				close(release)
				if err := <-holder; err != nil {
					t.Fatal(err)
				}
				if err := <-waiter; err != nil {
					t.Fatal(err)
				}
				if failed(c) {
					t.Errorf("a refused request latched the session: %s", c.s.describe().Failed)
				}
				good(t, c, ep)
			})
			t.Run("failed session", func(t *testing.T) {
				c, ok := setup(t, "seed=1;server.worker.panic=every=1,max=1,arg=1", 0)
				if ok || !failed(c) {
					t.Fatal("the setup workload's crash did not fail the session")
				}
				before := jobStarts(c)
				resp, body := send(t, c, ep, ep.good, goodWorkload)
				sessionConflict(t, resp, body)
				if n := jobStarts(c) - before; n != 0 {
					t.Errorf("%d jobs started on a failed session", n)
				}
				if !failed(c) {
					t.Error("the session is no longer failed")
				}
			})
		})
	}
}
