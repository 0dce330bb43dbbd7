package wire_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"visibility"
	"visibility/internal/wire"
)

// freshEnv returns an environment over a new runtime.
func freshEnv(t *testing.T) (*visibility.Runtime, *wire.Env) {
	t.Helper()
	rt := visibility.New(visibility.Config{})
	t.Cleanup(rt.Close)
	return rt, wire.NewEnv(rt)
}

// TestOneVerdict holds Decode and Env.Apply to one verdict: whatever the
// stateless check accepts a fresh session runs in full, and whatever it
// rejects past the JSON layer the session rejects for the same reason
// without declaring anything.
func TestOneVerdict(t *testing.T) {
	accepted := map[string][]byte{}
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata workloads (err %v)", err)
	}
	for _, f := range files {
		if accepted[f], err = os.ReadFile(f); err != nil {
			t.Fatal(err)
		}
	}
	for name, wl := range map[string]*wire.Workload{
		"ExampleQuickstart": wire.ExampleQuickstart(), "ExampleGraphsim(3)": wire.ExampleGraphsim(3),
	} {
		var buf bytes.Buffer
		if err := wire.Encode(&buf, wl); err != nil {
			t.Fatal(err)
		}
		accepted[name] = buf.Bytes()
	}
	// null is the zero value of whatever it stands for, as in encoding/json.
	accepted["null members"] = []byte(`{"version":1,"name":null,"regions":[{"name":"r","dim":1,"space":[[0,9]],"fields":["v"],` +
		`"init":null,"partitions":null}],"tasks":[{"name":"t","after":null,"accesses":[` +
		`{"region":"r","field":"v","privilege":"write","op":null,"kernel":null}]}]}`)
	for name, data := range accepted {
		t.Run("accept/"+name, func(t *testing.T) {
			wl, err := wire.Decode(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			_, env := freshEnv(t)
			futs, err := env.Apply(wl)
			if err != nil || len(futs) != len(wl.Tasks) {
				t.Fatalf("Apply launched %d of %d tasks, err %v", len(futs), len(wl.Tasks), err)
			}
		})
	}

	for _, tc := range rejects() {
		t.Run("reject/"+tc.name, func(t *testing.T) {
			_, err := wire.Decode(strings.NewReader(tc.in))
			if err == nil {
				t.Fatal("Decode accepted")
			}
			if msg := err.Error(); strings.Contains(msg, "decoding workload") || strings.Contains(msg, "trailing data") {
				return // rejected by the JSON layer: there is no Workload to apply
			}
			var wl wire.Workload
			if err := json.Unmarshal([]byte(tc.in), &wl); err != nil {
				t.Fatalf("row is past the JSON layer but does not unmarshal: %v", err)
			}
			rt, env := freshEnv(t)
			if _, err := env.Apply(&wl); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Apply error = %v, want substring %q", err, tc.want)
			}
			if n := len(env.Regions()); n != 0 || rt.Region("r") != nil {
				t.Fatalf("rejected workload left %d regions in the session (runtime has r: %v)", n, rt.Region("r") != nil)
			}
		})
	}

	// The documented set Decode rejects and encoding/json let through.
	for _, tc := range stricter() {
		t.Run("stricter/"+tc.name, func(t *testing.T) {
			if _, err := decodeStdlib([]byte(tc.in)); err != nil {
				t.Fatalf("encoding/json rejects it too: %v", err)
			}
			_, err := wire.Decode(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), "decoding workload") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Decode error = %v, want a decoding error with %q", err, tc.want)
			}
		})
	}

	// Verdicts only a session can reach: Decode defers them, Apply rejects
	// them before it declares or launches anything.
	read := func(region string) []wire.AccessDecl {
		return []wire.AccessDecl{{Region: region, Field: "val", Privilege: "read"}}
	}
	extra := wire.RegionDecl{Name: "extra", Dim: 1, Space: [][]int64{{0, 3}}, Fields: []string{"val"}}
	for _, tc := range []struct {
		name string
		wl   *wire.Workload
		want string
	}{
		{"dangling batch reference", &wire.Workload{Version: wire.Version, Tasks: []wire.TaskDecl{
			{Name: "ok", Accesses: read("cells")}, {Name: "bad", Accesses: read("ghosts[0]")}}}, "dangling reference"},
		{"redeclared region", &wire.Workload{Version: wire.Version, Regions: []wire.RegionDecl{
			extra, {Name: "blocks", Dim: 1, Space: [][]int64{{0, 3}}, Fields: []string{"val"}}}}, "already declared as a partition"},
		{"bad op in batch", &wire.Workload{Version: wire.Version, Tasks: []wire.TaskDecl{{Name: "bad", Accesses: []wire.AccessDecl{
			{Region: "cells", Field: "val", Privilege: "reduce", Op: "xor"}}}}}, "unknown reduction op"},
		{"declared region, bad task", &wire.Workload{Version: wire.Version, Regions: []wire.RegionDecl{extra},
			Tasks: []wire.TaskDecl{{Name: "bad", Accesses: read("cells")}}}, "dangling reference"},
	} {
		t.Run("session/"+tc.name, func(t *testing.T) {
			rt, env := freshEnv(t)
			if _, err := env.Apply(wire.ExampleQuickstart()); err != nil {
				t.Fatal(err)
			}
			launched := len(rt.Dependences(env.Region("cells")))
			if _, err := env.Apply(tc.wl); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Apply error = %v, want substring %q", err, tc.want)
			}
			if n := len(env.Regions()); n != 1 || rt.Region("extra") != nil {
				t.Fatalf("rejected workload left %d regions (runtime has extra: %v)", n, rt.Region("extra") != nil)
			}
			if n := len(rt.Dependences(env.Region("cells"))); n != launched {
				t.Fatalf("rejected workload launched %d tasks", n-launched)
			}
		})
	}
}

// TestKernelBuiltOncePerPass pins the single check: serving a batch is one
// DecodeSized and one Env.Run, and Run finishes the plan DecodeSized's
// check made, kernel included, so the access's kernel is built once.
func TestKernelBuiltOncePerPass(t *testing.T) {
	body := encode(t, &wire.Workload{
		Version: wire.Version,
		Regions: []wire.RegionDecl{{Name: "r", Dim: 1, Space: [][]int64{{0, 3}}, Fields: []string{"v"}}},
		Tasks: []wire.TaskDecl{{Name: "t", Accesses: []wire.AccessDecl{
			{Region: "r", Field: "v", Privilege: "write", Kernel: &wire.FuncSpec{Name: "test.counted"}}}}},
	})
	before := wire.CountedBuilds.Load()
	b, err := wire.DecodeSized(bytes.NewReader(body), int64(len(body)))
	if err != nil {
		t.Fatal(err)
	}
	rt, env := freshEnv(t)
	if _, err := env.Run(b); err != nil {
		t.Fatal(err)
	}
	if got := wire.CountedBuilds.Load() - before; got != 1 {
		t.Fatalf("kernel built %d times over one DecodeSized + one Run, want 1", got)
	}
	if v, _ := rt.Read(env.Region("r"), "v").Get(visibility.Pt(0)); v != 1 {
		t.Fatalf("r[0] = %v, want 1: Run did not run the kernel the check built", v)
	}
}

// TestDecodedPlansDropped: the first Run of a decoded batch takes its
// plan, so running the batch again, on the same session or another,
// checks it in full and launches every task against that session.
func TestDecodedPlansDropped(t *testing.T) {
	counted := &wire.FuncSpec{Name: "test.counted"}
	wl := &wire.Workload{Version: wire.Version}
	for i := 0; i < 4; i++ {
		wl.Tasks = append(wl.Tasks, wire.TaskDecl{Name: "bump", Accesses: []wire.AccessDecl{
			{Region: fmt.Sprintf("P[%d]", i), Field: "up", Privilege: "write", Kernel: counted}}})
	}
	body := encode(t, wl)
	before := wire.CountedBuilds.Load()
	b, err := wire.DecodeSized(bytes.NewReader(body), int64(len(body)))
	if err != nil {
		t.Fatal(err)
	}
	run := func(env *wire.Env, builds int64) {
		t.Helper()
		before := wire.CountedBuilds.Load()
		if futs, err := env.Run(b); err != nil || len(futs) != len(wl.Tasks) {
			t.Fatalf("Run of a decoded batch launched %d of %d tasks, err %v", len(futs), len(wl.Tasks), err)
		}
		if got := wire.CountedBuilds.Load() - before; got != builds {
			t.Fatalf("Run built the kernel %d times, want %d", got, builds)
		}
	}
	session := func() (*visibility.Runtime, *wire.Env) {
		rt, env := freshEnv(t)
		if _, err := env.Apply(ring(64, 4)); err != nil {
			t.Fatal(err)
		}
		return rt, env
	}
	// Every point of N.up starts at its coordinate and each run adds one.
	want := func(rt *visibility.Runtime, env *wire.Env, runs float64) {
		t.Helper()
		rows := rt.Read(env.Region("N"), "up").Rows()
		if len(rows) != 64 {
			t.Fatalf("N.up has %d points, want 64", len(rows))
		}
		for _, row := range rows {
			if row[1] != row[0]+runs {
				t.Fatalf("N.up[%v] = %v after %v runs, want %v", row[0], row[1], runs, row[0]+runs)
			}
		}
	}
	if got := wire.CountedBuilds.Load() - before; got != 1 {
		t.Fatalf("DecodeSized built the kernel %d times, want 1", got)
	}
	rt1, env1 := session()
	run(env1, 0)
	run(env1, 1)
	want(rt1, env1, 2)
	rt2, env2 := session()
	run(env2, 1)
	want(rt2, env2, 1)
}

// TestConcurrentDecodeApply: sessions that decode and run batches at once
// share the pool of body buffers, and each runs its batch as its own
// checked copy would.
func TestConcurrentDecodeApply(t *testing.T) {
	body := encode(t, batches[1])
	want := func() [][]float64 {
		rt := visibility.New(visibility.Config{})
		defer rt.Close()
		env := wire.NewEnv(rt)
		for _, wl := range []*wire.Workload{ring(64, 4), batches[1], batches[1]} {
			if _, err := env.Apply(wl); err != nil {
				t.Fatal(err)
			}
		}
		return rt.Read(env.Region("N"), "up").Rows()
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt := visibility.New(visibility.Config{})
			defer rt.Close()
			env := wire.NewEnv(rt)
			if _, err := env.Apply(ring(64, 4)); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 2; i++ {
				b, err := wire.DecodeSized(bytes.NewReader(body), int64(len(body)))
				if err == nil {
					_, err = env.Run(b)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
			if got := rt.Read(env.Region("N"), "up").Rows(); !bitsEqual(got, want) {
				t.Errorf("a session applying decoded batches read %v, want %v", got, want)
			}
		}()
	}
	wg.Wait()
}
