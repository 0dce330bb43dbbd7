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

// TestExplainGolden pins the served explain, critical-path and DOT bodies
// of the Figure 1 workload, byte for byte, for every task of one session
// per analyzer and for an autotraced session whose replayed launches
// explain as replay edges. Regenerate with UPDATE_GOLDEN=1 go test
// ./internal/server -run TestExplainGolden and review the diff.
func TestExplainGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		cfg    client.SessionConfig
		iters  int
	}{
		{"explain_raycast.golden", client.SessionConfig{Algorithm: "raycast"}, 4},
		{"explain_warnock.golden", client.SessionConfig{Algorithm: "warnock"}, 4},
		{"explain_paint.golden", client.SessionConfig{Algorithm: "paint"}, 4},
		{"explain_paint-naive.golden", client.SessionConfig{Algorithm: "paint-naive"}, 4},
		{"explain_raycast_autotrace.golden", client.SessionConfig{Algorithm: "raycast", AutoTrace: true}, 12},
	} {
		t.Run(tc.golden, func(t *testing.T) {
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
			sess, err := c.CreateSession(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.Submit(wire.ExampleGraphsim(tc.iters)); err != nil {
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
			get("/dot?region=N")

			if tc.cfg.AutoTrace {
				snap, err := sess.Metrics()
				if err != nil {
					t.Fatal(err)
				}
				if snap["autotrace/instances"] == 0 || !bytes.Contains(got.Bytes(), []byte(`"kind":"replay"`)) {
					t.Fatalf("autotraced session replayed nothing (%d instances); the replay leg pins nothing",
						snap["autotrace/instances"])
				}
			}

			path := filepath.Join("testdata", tc.golden)
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("bodies differ from %s (regenerate with UPDATE_GOLDEN=1 and review the diff):\n%s", path, got.Bytes())
			}
		})
	}
}
