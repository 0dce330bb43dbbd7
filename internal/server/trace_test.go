package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"visibility/internal/fault"
	"visibility/internal/obs"
	"visibility/internal/server"
	"visibility/internal/server/client"
	"visibility/internal/wire"
)

// traceDoc mirrors the Chrome trace-event export for assertions.
type traceDoc struct {
	TraceEvents []struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Pid  int               `json:"pid"`
		Args map[string]string `json:"args"`
	} `json:"traceEvents"`
}

// TestSessionsListedInIDOrder opens more sessions than a map keeps in
// any one order and checks that /v1/sessions lists them, and /debug/trace
// names their processes, in ID order.
func TestSessionsListedInIDOrder(t *testing.T) {
	_, c, shutdown := newTestServer(t, server.Config{})
	defer shutdown()
	var want []string
	for i := 0; i < 16; i++ {
		sess, err := c.CreateSession(client.SessionConfig{Algorithm: "warnock"})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, sess.ID)
	}

	list, err := c.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, s := range list {
		listed = append(listed, s.ID)
	}
	if fmt.Sprint(listed) != fmt.Sprint(want) {
		t.Errorf("/v1/sessions lists %v, want %v", listed, want)
	}

	raw, err := c.DebugTrace()
	if err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("/debug/trace is not valid JSON: %v", err)
	}
	var named []string
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" && ev.Pid > 0 {
			named = append(named, strings.Fields(ev.Args["name"])[1])
		}
	}
	if fmt.Sprint(named) != fmt.Sprint(want) {
		t.Errorf("/debug/trace names session processes %v, want %v", named, want)
	}
}

// TestTracePropagation drives one request trace end to end: the client
// mints the root span, the server's HTTP span joins it via the
// traceparent header, the queue wait and the launches' analysis spans
// parent under the HTTP span, and the merged /debug/trace export shows the
// whole tree under one trace ID.
func TestTracePropagation(t *testing.T) {
	_, c, shutdown := newTestServer(t, server.Config{})
	defer shutdown()
	c.Spans = obs.NewBuffer(256)

	sess, err := c.CreateSession(client.SessionConfig{Algorithm: "raycast"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(wire.ExampleQuickstart()); err != nil {
		t.Fatal(err)
	}
	// The snapshot is a sync job, so by now the workload batch has been
	// analyzed and its spans recorded.
	if _, err := sess.Snapshot("cells", "val"); err != nil {
		t.Fatal(err)
	}

	// The client recorded a root span for the workloads POST.
	var clientTrace string
	for _, sp := range c.Spans.Snapshot() {
		if strings.Contains(sp.Name, "/workloads") {
			clientTrace = sp.Trace
		}
	}
	if clientTrace == "" {
		t.Fatalf("client recorded no workloads span: %+v", c.Spans.Snapshot())
	}

	raw, err := c.DebugTrace()
	if err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("/debug/trace is not valid JSON: %v", err)
	}

	// The session's analysis spans (its own track, past the HTTP track
	// on process 0) carry the client's trace ID: the context crossed
	// HTTP, the queue, and into the analyzer.
	var analysisTraced, queueWait bool
	for _, ev := range doc.TraceEvents {
		if ev.Pid == 0 || ev.Ph != "X" {
			continue
		}
		if ev.Cat == "analysis" && ev.Args["trace"] == clientTrace {
			analysisTraced = true
		}
		if ev.Name == "queue.wait" {
			queueWait = true
			if ev.Args["trace"] == "" || ev.Args["parent"] == "" {
				t.Errorf("queue.wait span not parented: %+v", ev)
			}
		}
	}
	if !analysisTraced {
		t.Errorf("no analysis span carries the client trace %s", clientTrace)
	}
	if !queueWait {
		t.Error("no queue.wait span recorded")
	}

	// The merged export parents analysis spans under the HTTP span.
	var httpSpan string
	for _, ev := range doc.TraceEvents {
		if ev.Name == "http.workloads" && ev.Args["trace"] == clientTrace {
			httpSpan = ev.Args["span"]
		}
	}
	if httpSpan == "" {
		t.Fatal("merged export has no http.workloads span for the client trace")
	}
	var children, queueChildren int
	for _, ev := range doc.TraceEvents {
		if ev.Args["parent"] != httpSpan {
			continue
		}
		if ev.Cat == "analysis" {
			children++
		}
		if ev.Name == "queue.wait" {
			queueChildren++
		}
	}
	if children == 0 {
		t.Error("http.workloads span has no analysis children in the export")
	}
	if queueChildren != 1 {
		t.Errorf("http.workloads span has %d queue.wait children, want 1", queueChildren)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerFailureRecorderDump injects a job failure (a crash in the
// session's second job) and checks the flight-recorder contract: the
// failing submit and the next one answer 409, the failure is journaled,
// the window is dumped to RecorderDir, the 409 body carries the recent
// events and the dump path, and the dump holds the events leading up to
// the failure.
func TestWorkerFailureRecorderDump(t *testing.T) {
	dir := t.TempDir()
	inj, err := fault.NewFromString("seed=1;server.worker.panic=every=1,after=1,max=1,arg=1")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{IdleTimeout: -1, RecorderDir: dir, Faults: inj})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer func() {
		if err := srv.Shutdown(t.Context()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	c := client.New(hs.URL)
	c.RetryWait = 10 * time.Millisecond

	sess, err := c.CreateSession(client.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(wire.ExampleQuickstart()); err != nil {
		t.Fatal(err)
	}
	// The next job crashes, latching the session failure, and the request
	// answers with the 409.
	if err := sess.Submit(wire.ExampleQuickstart()); err == nil {
		t.Fatal("crashed submit accepted")
	} else if se, ok := err.(*client.StatusError); !ok || se.Code != http.StatusConflict {
		t.Fatalf("crashed submit error = %v, want 409", err)
	}

	// The journal shows the failure.
	deadline := time.Now().Add(5 * time.Second)
	for {
		events, err := c.DebugRecorder(0)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(strings.Join(events, "\n"), " worker_fail seq=1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker_fail never journaled; events: %q", events)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The next submit is refused with 409 carrying the recorder window
	// and the on-disk dump path.
	var buf bytes.Buffer
	if err := wire.Encode(&buf, wire.ExampleQuickstart()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/v1/sessions/"+sess.ID+"/workloads", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Error(err)
		}
	}()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("submit to failed session returned %d, want 409", resp.StatusCode)
	}
	var body struct {
		Error        string   `json:"error"`
		Recorder     []string `json:"recorder"`
		RecorderDump string   `json:"recorder_dump"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.Error, "injected crash") {
		t.Errorf("409 error = %q, want the injected crash", body.Error)
	}
	if len(body.Recorder) == 0 {
		t.Error("409 body carries no recorder events")
	}
	if body.RecorderDump == "" {
		t.Fatal("409 body carries no recorder dump path")
	}

	// The dump holds the events leading up to the failure.
	dump, err := os.ReadFile(body.RecorderDump)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{" task_launch task=", " worker_fail seq=1\n"} {
		if !strings.Contains(string(dump), want) {
			t.Errorf("dump has no %q line:\n%s", want, dump)
		}
	}
}
