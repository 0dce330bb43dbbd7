package client

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"visibility/internal/server"
	"visibility/internal/wire"
)

// TestQueryNamesAreEscaped round-trips region and field names full of
// query-string metacharacters — wire accepts any non-empty name — through
// every Session call that puts one in a URL, and an algorithm name through
// Restore's query.
func TestQueryNamesAreEscaped(t *testing.T) {
	srv := server.New(server.Config{IdleTimeout: -1})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer func() {
		if err := srv.Shutdown(t.Context()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	const region, field = "a b&c=d", "v&w=x y"
	sess, err := New(hs.URL).CreateSession(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	err = sess.Submit(&wire.Workload{
		Version: wire.Version,
		Regions: []wire.RegionDecl{
			{Name: "a b", Dim: 1, Space: [][]int64{{0, 0}}, Fields: []string{"v"}}, // what an unescaped query would name
			{Name: region, Dim: 1, Space: [][]int64{{0, 3}}, Fields: []string{field}},
		},
		Tasks: []wire.TaskDecl{{Name: "fill", Accesses: []wire.AccessDecl{{
			Region: region, Field: field, Privilege: "write",
			Kernel: &wire.FuncSpec{Name: "fill", Args: map[string]float64{"value": 7}},
		}}}},
	})
	if err != nil {
		t.Fatal(err)
	}

	rows, err := sess.Snapshot(region, field)
	if err != nil || len(rows) != 4 || rows[3][1] != 7 {
		t.Errorf("Snapshot = %v, %v; want 4 points of value 7", rows, err)
	}
	// The server answers 404 for a region it does not know.
	errs := map[string]error{}
	_, errs["Dependences"] = sess.Dependences(region)
	_, errs["CritDOT"] = sess.CritDOT(region)
	_, errs["CritPath"] = sess.CritPath(region, 1)
	_, errs["Explain"] = sess.Explain(region, 0)
	why, err := sess.Why(region, 0, 1) // task 1 is Snapshot's inline read of task 0
	if errs["Why"] = err; err == nil && (why.Region != region || !why.MustPrecede) {
		t.Errorf("Why = %+v", why)
	}
	for call, err := range errs {
		if err != nil {
			t.Errorf("%s: %v", call, err)
		}
	}

	// Restore escapes its query too: an algorithm name carrying
	// "&autotrace=true" names an unknown algorithm, never an autotraced
	// session.
	ckpt, err := sess.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(hs.URL).Restore(ckpt, SessionConfig{Algorithm: "raycast&autotrace=true"})
	if se, ok := err.(*StatusError); !ok || se.Code != 400 || !strings.Contains(se.Message, `unknown algorithm "raycast&autotrace=true"`) {
		t.Errorf("Restore = %v, want a 400 for the unknown algorithm", err)
	}
}

// TestRetryDelayJitterBounds pins the backpressure contract: every retry
// waits at least the advertised delay, never more than 1.5x of it, and
// delays actually vary — synchronized clients must not re-collide on the
// server at exact Retry-After boundaries.
func TestRetryDelayJitterBounds(t *testing.T) {
	const base = 100 * time.Millisecond
	distinct := make(map[time.Duration]bool)
	for i := 0; i < 200; i++ {
		d := retryDelay(base)
		if d < base || d > base+base/2 {
			t.Fatalf("retryDelay(%v) = %v outside [%v, %v]", base, d, base, base+base/2)
		}
		distinct[d] = true
	}
	if len(distinct) < 2 {
		t.Errorf("200 draws produced %d distinct delays — jitter missing", len(distinct))
	}
	if got := retryDelay(0); got != 0 {
		t.Errorf("retryDelay(0) = %v, want 0", got)
	}
}
