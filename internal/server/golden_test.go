package server_test

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"visibility/internal/server"
	"visibility/internal/server/client"
	"visibility/internal/wire"
)

// stacks are the six served analysis stacks: each analyzer, with and
// without the autotracer.
var stacks = []client.SessionConfig{
	{Algorithm: "raycast"},
	{Algorithm: "warnock"},
	{Algorithm: "paint"},
	{Algorithm: "raycast", AutoTrace: true},
	{Algorithm: "warnock", AutoTrace: true},
	{Algorithm: "paint", AutoTrace: true},
}

func stackName(cfg client.SessionConfig) string {
	if cfg.AutoTrace {
		return cfg.Algorithm + "+autotrace"
	}
	return cfg.Algorithm
}

// servedGraphsim submits wire.ExampleGraphsim(iterations) to a fresh
// session on cfg and returns every task's explain body, the top three
// critical paths and the DOT, each after its request line. It fails the
// test when an autotraced session replayed no launch, since such a leg
// pins nothing about replay.
func servedGraphsim(t *testing.T, cfg client.SessionConfig, iterations int) []byte {
	t.Helper()
	srv := server.New(server.Config{IdleTimeout: -1})
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		if err := srv.Shutdown(t.Context()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		hs.Close()
	}()
	c := client.New(hs.URL)
	c.RetryWait = 10 * time.Millisecond
	sess, err := c.CreateSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(wire.ExampleGraphsim(iterations)); err != nil {
		t.Fatal(err)
	}
	tasks, err := sess.Dependences("N")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	get := func(path string) {
		body := rawGET(t, hs.URL+"/v1/sessions/"+sess.ID+path)
		fmt.Fprintf(&got, "GET %s\n%s", path, body)
		if !bytes.HasSuffix(body, []byte("\n")) {
			got.WriteByte('\n')
		}
	}
	for _, ti := range tasks {
		get(fmt.Sprintf("/explain?task=%d", ti.ID))
	}
	get("/critpath?k=3")
	get("/critpath?format=dot")

	if cfg.AutoTrace {
		snap, err := sess.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		if snap["trace/replayed"] == 0 {
			t.Fatal("the autotraced session replayed no launch; its leg pins nothing")
		}
	}
	return got.Bytes()
}

// TestExplainGolden pins the served explain, critical-path and DOT bodies
// of the Figure 1 workload, byte for byte, for every task: an explanation
// is a property of the workload, so every stack — each served analyzer,
// with and without the autotracer — serves the one golden, replayed
// launches included. Regenerate with UPDATE_GOLDEN=1 go test
// ./internal/server -run TestExplainGolden and review the diff.
func TestExplainGolden(t *testing.T) {
	path := filepath.Join("testdata", "explain_graphsim.golden")
	for _, cfg := range stacks {
		t.Run(stackName(cfg), func(t *testing.T) {
			got := servedGraphsim(t, cfg, 12)
			if os.Getenv("UPDATE_GOLDEN") != "" && cfg == stacks[0] {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("bodies differ from %s (regenerate with UPDATE_GOLDEN=1 and review the diff):\n%s", path, got)
			}
		})
	}
}

// TestServedAnalyzersAgreeOnGraphsim runs the Figure 1 workload past the
// golden's length, 40 iterations, so the autotracer commits and replays
// many more loop instances, and holds the six stacks' explain,
// critical-path and DOT bodies byte-identical to one another: a stack
// that drifts only on a longer run shows here without a golden to
// regenerate.
func TestServedAnalyzersAgreeOnGraphsim(t *testing.T) {
	want := servedGraphsim(t, stacks[0], 40)
	for _, cfg := range stacks[1:] {
		if got := servedGraphsim(t, cfg, 40); !bytes.Equal(got, want) {
			t.Errorf("%s: bodies differ from %s's:\n%s", stackName(cfg), stackName(stacks[0]), got)
		}
	}
}
