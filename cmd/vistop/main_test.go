package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"visibility/internal/bench"

	"visibility/internal/server"
	"visibility/internal/server/client"
	"visibility/internal/wire"
)

func TestRate(t *testing.T) {
	if got := rate(30, 10, 2*time.Second); got != 10 {
		t.Errorf("rate(30, 10, 2s) = %v, want 10", got)
	}
	if got := rate(5, 0, 0); got != 0 {
		t.Errorf("rate with zero dt = %v, want 0", got)
	}
}

func TestLaunches(t *testing.T) {
	m := map[string]int64{
		"raycast/launches":  7,
		"analyzer/launches": 3,
		"trace/replayed":    99,
	}
	if got := launches(m); got != 10 {
		t.Errorf("launches = %d, want 10", got)
	}
	if got := launches(nil); got != 0 {
		t.Errorf("launches(nil) = %d, want 0", got)
	}
}

func TestTraceHitRate(t *testing.T) {
	if got := traceHitRate(map[string]int64{"warnock/launches": 10}); got != "-" {
		t.Errorf("hit rate without replays = %q, want -", got)
	}
	// 75 replayed of 100 total (25 analyzed + 75 replayed) = 75%.
	m := map[string]int64{"warnock/launches": 25, "trace/replayed": 75}
	if got := traceHitRate(m); got != "75" {
		t.Errorf("hit rate = %q, want 75", got)
	}
}

// TestDashboardAgainstLiveServer renders two frames against a real
// server with one active session and checks every table is populated:
// the endpoint rows, the session row with its launch count, and the
// analysis hot spots aggregated from the session's spans.
func TestDashboardAgainstLiveServer(t *testing.T) {
	srv := server.New(server.Config{IdleTimeout: -1})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer func() {
		if err := srv.Shutdown(t.Context()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	c := client.New(hs.URL)
	sess, err := c.CreateSession(client.SessionConfig{Algorithm: "warnock"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(wire.ExampleGraphsim(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Snapshot("N", "up"); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	err = run([]string{"-target", hs.URL, "-frames", "2", "-interval", "10ms", "-plain"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"ENDPOINT", "workloads", "snapshot", // HTTP table rows
		"SESSION", sess.ID, "warnock", // session table row
		"TRACE%",   // trace hit-rate column
		"HOT SPOT", // analysis-phase attribution
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard output missing %q:\n%s", want, out)
		}
	}
	// -plain renders frames without ANSI escapes.
	if strings.Contains(out, "\x1b[") {
		t.Error("-plain output contains ANSI escape sequences")
	}
	if n := strings.Count(out, "vistop · "); n != 2 {
		t.Errorf("rendered %d frame headers, want 2", n)
	}

	// The default mode clears the screen between frames.
	buf.Reset()
	if err := run([]string{"-target", hs.URL, "-frames", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "\x1b[2J\x1b[H") {
		t.Error("default mode does not clear the screen before a frame")
	}

	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestUnreachableTarget pins the failure mode: a dashboard that can't
// reach its server on the first frame exits with the fetch error.
func TestUnreachableTarget(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-target", "http://127.0.0.1:1", "-frames", "1"}, &buf)
	if err == nil {
		t.Fatal("run against an unreachable target succeeded")
	}
}

// TestBenchSummary covers the trajectory row: the newest BENCH_<n>.json
// in a directory wins (numerically, so 10 beats 9), the row carries the
// aggregate launch rate and commit, and absent or disabled paths
// produce no row.
func TestBenchSummary(t *testing.T) {
	dir := t.TempDir()
	write := func(name, commit string, lps float64) {
		t.Helper()
		rec := &bench.Record{
			Meta: bench.Meta{Schema: bench.Schema, Commit: commit, GoVersion: "go1.24.0",
				GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 4, Reps: 3, Iters: 3, MaxNodes: 2,
				Apps: []string{"stencil"}},
			Cells: []bench.Cell{{
				App: "stencil", System: "raycast_dcr", Nodes: 1, Launches: 1000,
				WallSeconds: 1000 / lps, LaunchesPerSec: lps,
				InitTime: 0.01, IterTime: 0.002, ThroughputPerNode: 1,
				AllocsPerLaunch: 40, BytesPerLaunch: 3000,
				AnalysisP50Ns: 1, AnalysisP95Ns: 2, AnalysisP99Ns: 3,
			}},
		}
		if err := bench.WriteFile(filepath.Join(dir, name), rec); err != nil {
			t.Fatal(err)
		}
	}
	write("BENCH_9.json", "older00", 1000)
	write("BENCH_10.json", "newer00", 2000)

	line := benchSummary(dir)
	for _, want := range []string{"BENCH_10.json", "newer00", "2000 launches/s", "reps 3"} {
		if !strings.Contains(line, want) {
			t.Errorf("bench row %q missing %q", line, want)
		}
	}
	if got := benchSummary(filepath.Join(dir, "BENCH_9.json")); !strings.Contains(got, "older00") {
		t.Errorf("explicit file ignored: %q", got)
	}
	if got := benchSummary(t.TempDir()); got != "" {
		t.Errorf("empty dir produced a row: %q", got)
	}
	if got := benchSummary(""); got != "" {
		t.Errorf("disabled path produced a row: %q", got)
	}
	// A present-but-corrupt record is surfaced, not silently dropped.
	bad := filepath.Join(dir, "BENCH_11.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := benchSummary(bad); !strings.Contains(got, "unreadable") {
		t.Errorf("corrupt record row = %q, want unreadable marker", got)
	}
}

func TestLatestBenchFile(t *testing.T) {
	dir := t.TempDir()
	if got := latestBenchFile(dir); got != "" {
		t.Errorf("empty dir = %q, want \"\"", got)
	}
	for _, name := range []string{"BENCH_2.json", "BENCH_0.json", "BENCH_x.json", "notbench.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := latestBenchFile(dir); filepath.Base(got) != "BENCH_2.json" {
		t.Errorf("latest = %q, want BENCH_2.json", got)
	}
}
