package server_test

import (
	"bytes"
	"net/http/httptest"
	"testing"
	"time"

	"visibility/internal/server"
	"visibility/internal/server/client"
	"visibility/internal/wire"
)

// fetchSessionArtifacts starts a fresh server, creates one session with
// the given config, drives the graphsim workload through it, and returns
// the raw bytes of the provenance-bearing endpoints. Fresh servers number
// sessions identically, so artifacts from two calls compare byte-for-byte.
func fetchSessionArtifacts(t *testing.T, cfg client.SessionConfig) map[string][]byte {
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
	if err := sess.Submit(wire.ExampleGraphsim(4)); err != nil {
		t.Fatal(err)
	}
	paths := []string{
		"/v1/sessions/" + sess.ID + "/explain?task=5",
		"/v1/sessions/" + sess.ID + "/explain?task=7&src=1",
		"/v1/sessions/" + sess.ID + "/critpath?k=3",
		"/v1/sessions/" + sess.ID + "/critpath?format=dot",
	}
	out := map[string][]byte{}
	for _, p := range paths {
		out[p] = rawGET(t, hs.URL+p)
	}
	return out
}

// TestShardSessionMatchesUnsharded is the server-level shard-equivalence
// gate: a sharded session must serve byte-identical provenance and
// critical-path answers to its unsharded twin over HTTP — with provenance
// alone and composed with automatic trace memoization (where replayed
// launches skip the shard fan-out entirely and replay provenance must
// name the base analyzer, not the sharded composition).
func TestShardSessionMatchesUnsharded(t *testing.T) {
	cases := []struct {
		name          string
		base, sharded client.SessionConfig
	}{
		{
			name:    "provenance",
			base:    client.SessionConfig{Algorithm: "raycast"},
			sharded: client.SessionConfig{Algorithm: "raycast", Shards: 4},
		},
		{
			name:    "autotrace",
			base:    client.SessionConfig{Algorithm: "raycast", AutoTrace: true},
			sharded: client.SessionConfig{Algorithm: "raycast", AutoTrace: true, Shards: 4},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := fetchSessionArtifacts(t, tc.base)
			got := fetchSessionArtifacts(t, tc.sharded)
			for p, body := range want {
				if !bytes.Equal(body, got[p]) {
					t.Errorf("%s differs between unsharded and sharded sessions:\nunsharded:\n%s\nsharded:\n%s", p, body, got[p])
				}
			}
		})
	}
}

// TestShardSessionDescribed pins the shard count through the session
// API: create, list, and restore all carry it.
func TestShardSessionDescribed(t *testing.T) {
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
	sess, err := c.CreateSession(client.SessionConfig{Algorithm: "raycast", Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(wire.ExampleGraphsim(2)); err != nil {
		t.Fatal(err)
	}
	infos, err := c.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Shards != 3 {
		t.Fatalf("session list = %+v, want one session with 3 shards", infos)
	}

	ckpt, err := sess.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := c.Restore(ckpt, client.SessionConfig{Algorithm: "raycast", Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	infos, err = c.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, info := range infos {
		if info.ID == restored.ID {
			found = true
			if info.Shards != 5 {
				t.Errorf("restored session has %d shards, want 5", info.Shards)
			}
		}
	}
	if !found {
		t.Fatalf("restored session %s not listed: %+v", restored.ID, infos)
	}

	if _, err := c.CreateSession(client.SessionConfig{Algorithm: "raycast", Shards: -1}); err == nil {
		t.Fatal("negative shard count accepted")
	}
}
