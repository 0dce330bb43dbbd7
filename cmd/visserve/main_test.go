package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"visibility"
	"visibility/internal/server/client"
	"visibility/internal/wire"
)

// syncBuffer lets the test read run's output while run is still writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeEndToEnd exercises the real command path: serve on an
// ephemeral port, replay the quickstart workload over HTTP, compare the
// served snapshot against an in-process run, then drain via SIGTERM —
// the same signal a supervisor sends.
func TestServeEndToEnd(t *testing.T) {
	var out syncBuffer
	errc := make(chan error, 1)
	go func() { errc <- run([]string{"-addr", "127.0.0.1:0"}, &out) }()

	var target string
	deadline := time.Now().Add(10 * time.Second)
	for target == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address; output: %q", out.String())
		}
		if s := out.String(); strings.Contains(s, "listening on ") {
			line := s[strings.Index(s, "listening on ")+len("listening on "):]
			target = strings.TrimSpace(strings.SplitN(line, "\n", 2)[0])
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	c := client.New(target)
	sess, err := c.CreateSession(client.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(wire.ExampleQuickstart()); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Snapshot("cells", "val")
	if err != nil {
		t.Fatal(err)
	}

	rt := visibility.New(visibility.Config{})
	defer rt.Close()
	env := wire.NewEnv(rt)
	if _, err := env.Apply(wire.ExampleQuickstart()); err != nil {
		t.Fatal(err)
	}
	var want [][]float64
	rt.Read(env.Region("cells"), "val").Each(func(p visibility.Point, v float64) {
		want = append(want, []float64{float64(p.C[0]), v})
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("served snapshot diverges from in-process run")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	// Graceful drain on SIGTERM, as a supervisor would deliver it.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("serve exited with error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not drain after SIGTERM")
	}
	if s := out.String(); !strings.Contains(s, "drained: 0 sessions remain, 0 jobs in flight") {
		t.Fatalf("drain summary missing from output: %q", s)
	}
}

// TestLoadMode runs the load harness end to end with an in-process
// server and four concurrent tenants.
func TestLoadMode(t *testing.T) {
	var out syncBuffer
	if err := run([]string{"-load", "4", "-iterations", "2"}, &out); err != nil {
		t.Fatalf("load mode failed: %v\noutput: %s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "sessions=4") || !strings.Contains(s, "deterministic ✓") {
		t.Fatalf("load summary missing: %q", s)
	}
	if !strings.Contains(s, "drained: 0 sessions remain") {
		t.Fatalf("load harness did not drain its server: %q", s)
	}
	// 2 iterations × (3 t1 + 3 t2) tasks per session.
	if !strings.Contains(s, fmt.Sprintf("tasks/session=%d", 12)) {
		t.Fatalf("unexpected task count in summary: %q", s)
	}
}

// TestLoadModeTraceOut runs the harness with -trace-out and checks the
// exported file is a Perfetto-loadable trace whose HTTP spans have
// analysis children — the fetch must happen before the sessions close,
// or their span rings are gone.
func TestLoadModeTraceOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "load.trace.json")
	var out syncBuffer
	if err := run([]string{"-load", "2", "-iterations", "1", "-trace-out", path}, &out); err != nil {
		t.Fatalf("load mode failed: %v\noutput: %s", err, out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Cat  string            `json:"cat"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	httpSpans := map[string]bool{} // span id of each http.workloads span
	for _, ev := range doc.TraceEvents {
		if ev.Name == "http.workloads" && ev.Args["span"] != "" {
			httpSpans[ev.Args["span"]] = false
		}
	}
	if len(httpSpans) == 0 {
		t.Fatal("trace export has no http.workloads spans")
	}
	for _, ev := range doc.TraceEvents {
		if ev.Cat == "analysis" {
			if _, ok := httpSpans[ev.Args["parent"]]; ok {
				httpSpans[ev.Args["parent"]] = true
			}
		}
	}
	for span, hasChild := range httpSpans {
		if !hasChild {
			t.Errorf("http.workloads span %s has no analysis children", span)
		}
	}
}

// TestServeSIGQUITDump serves on an ephemeral port, delivers SIGQUIT,
// and checks the flight recorder lands on disk as a parseable dump —
// without the signal taking the server down.
func TestServeSIGQUITDump(t *testing.T) {
	dir := t.TempDir()
	var out syncBuffer
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"-addr", "127.0.0.1:0", "-recorder-dump", dir}, &out)
	}()

	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(out.String(), "listening on ") {
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address; output: %q", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A session the dump must name.
	s := out.String()
	base := strings.TrimSpace(strings.SplitN(s[strings.Index(s, "listening on ")+len("listening on "):], "\n", 2)[0])
	sess, err := client.New(base).CreateSession(client.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var seq int
	if _, err := fmt.Sscanf(sess.ID, "s%d", &seq); err != nil {
		t.Fatal(err)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	var dumpPath string
	for dumpPath == "" {
		if time.Now().After(deadline) {
			t.Fatalf("no recorder dump after SIGQUIT; output: %q", out.String())
		}
		if s := out.String(); strings.Contains(s, "recorder dump written to ") {
			line := s[strings.Index(s, "recorder dump written to ")+len("recorder dump written to "):]
			dumpPath = strings.TrimSpace(strings.SplitN(line, "\n", 2)[0])
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	dump, err := os.ReadFile(dumpPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf(" session_open seq=%d\n", seq); !strings.Contains(string(dump), want) {
		t.Fatalf("SIGQUIT dump has no %q line:\n%s", want, dump)
	}

	// The server is still alive and drains normally.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("serve exited with error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not drain after SIGTERM")
	}
}
