package wire_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"visibility"
	"visibility/internal/wire"
)

// regionJSON wraps extra members of a region declaration in a minimal
// workload: region r, ten points, field v.
func regionJSON(tail string) string {
	return `{"version":1,"regions":[{"name":"r","dim":1,"space":[[0,9]],"fields":["v"]` + tail + `}]}`
}

// bycolorBomb passed Decode and took the process down in Apply: the piece
// count sizes an allocation (fatal out-of-memory, not a recoverable panic).
var bycolorBomb = regionJSON(`,"partitions":[{"name":"p","kind":"bycolor","pieces":1099511627776,` +
	`"color":{"name":"mod","args":{"axis":0,"n":2}}}]`)

// rejects is every class of malformed input the wire format must screen
// out, with a substring of the error that names the offending construct.
func rejects() []rejectRow {
	return []rejectRow{
		{"not json", `not json`, "decoding workload"},
		{"unknown top-level field", `{"version":1,"bogus":3}`, "bogus"},
		{"unknown access field",
			`{"version":1,"regions":[{"name":"r","dim":1,"space":[[0,9]],"fields":["v"]}],` +
				`"tasks":[{"name":"t","accesses":[{"region":"r","field":"v","privilege":"read","frob":1}]}]}`,
			"frob"},
		{"trailing garbage", `{"version":1}{"version":1}`, "trailing data"},
		{"wrong version", `{"version":7}`, "unsupported version"},
		{"empty region name", `{"version":1,"regions":[{"name":"","dim":1,"space":[[0,9]],"fields":["v"]}]}`, "empty name"},
		{"duplicate region", `{"version":1,"regions":[` +
			`{"name":"r","dim":1,"space":[[0,9]],"fields":["v"]},` +
			`{"name":"r","dim":1,"space":[[0,9]],"fields":["v"]}]}`, "duplicate region"},
		{"dim zero", `{"version":1,"regions":[{"name":"r","dim":0,"space":[[0,9]],"fields":["v"]}]}`, "dimension 0"},
		{"inverted rect", `{"version":1,"regions":[{"name":"r","dim":1,"space":[[9,0]],"fields":["v"]}]}`, "lo > hi"},
		{"malformed rect", `{"version":1,"regions":[{"name":"r","dim":2,"space":[[0,9]],"fields":["v"]}]}`, "malformed rect"},
		{"empty space", `{"version":1,"regions":[{"name":"r","dim":1,"space":[],"fields":["v"]}]}`, "empty index space"},
		{"no fields", `{"version":1,"regions":[{"name":"r","dim":1,"space":[[0,9]],"fields":[]}]}`, "no fields"},
		{"duplicate field", `{"version":1,"regions":[{"name":"r","dim":1,"space":[[0,9]],"fields":["v","v"]}]}`, "duplicate field"},
		{"unbounded volume", `{"version":1,"regions":[{"name":"r","dim":1,"space":[[0,1099511627776]],"fields":["v"]}]}`, "exceeds 4194304 values"},
		{"volume wraps int64 to zero", `{"version":1,"regions":[{"name":"r","dim":2,` +
			`"space":[[0,4294967295,0,4294967295]],"fields":["v"]}]}`, "exceeds 4194304 values"},
		{"volume over budget by fields", `{"version":1,"regions":[{"name":"r","dim":1,"space":[[0,2097152]],"fields":["v","w"]}]}`, "exceeds 4194304 values"},
		{"init unknown field", regionJSON(`,"init":{"w":{"name":"fill","args":{"value":1}}}`), "unknown field"},
		{"init unknown kernel", regionJSON(`,"init":{"v":{"name":"nope"}}`), "unknown kernel"},
		{"kernel bad args", regionJSON(`,"init":{"v":{"name":"fill","args":{"value":1,"extra":2}}}`), `unknown argument "extra"`},
		{"kernel missing args", regionJSON(`,"init":{"v":{"name":"fill"}}`), `missing argument "value"`},
		{"kernel non-integer axis", regionJSON(`,"init":{"v":{"name":"coord","args":{"axis":0.5}}}`), "not an integer"},
		{"partition unknown kind", regionJSON(`,"partitions":[{"name":"p","kind":"spiral"}]`), "unknown kind"},
		{"equal too many pieces", regionJSON(`,"partitions":[{"name":"p","kind":"equal","pieces":99}]`), "99 equal pieces"},
		{"explicit piece escapes", regionJSON(`,"partitions":[{"name":"p","kind":"explicit","spaces":[[[0,50]]]}]`), "not a subset"},
		{"image dangling source", regionJSON(`,"partitions":[{"name":"p","kind":"image","source":"q",` +
			`"relation":{"name":"ring","args":{"radius":1,"modulo":10}}}]`), "unknown partition"},
		{"image missing relation", regionJSON(`,"partitions":[{"name":"q","kind":"equal","pieces":2},` +
			`{"name":"p","kind":"image","source":"q"}]`), "needs a relation"},
		{"minus mismatched pieces", regionJSON(`,"partitions":[{"name":"a","kind":"equal","pieces":2},` +
			`{"name":"b","kind":"equal","pieces":5},{"name":"p","kind":"minus","left":"a","right":"b"}]`),
			"2 and 5 pieces"},
		{"bycolor missing color", regionJSON(`,"partitions":[{"name":"p","kind":"bycolor","pieces":2}]`), "needs a color"},
		{"bycolor unbounded pieces", bycolorBomb, "10 points into 1099511627776 pieces"},
		{"ring unbounded radius", regionJSON(`,"partitions":[{"name":"q","kind":"equal","pieces":2},{"name":"p","kind":"image",` +
			`"source":"q","relation":{"name":"ring","args":{"radius":1099511627776,"modulo":10}}}]`), "radius 1099511627776 outside"},
		{"window unbounded radius", regionJSON(`,"partitions":[{"name":"q","kind":"equal","pieces":2},{"name":"p","kind":"preimage",` +
			`"source":"q","relation":{"name":"window","args":{"radius":1099511627776}}}]`), "radius 1099511627776 outside"},
		{"task no accesses",
			`{"version":1,"regions":[{"name":"r","dim":1,"space":[[0,9]],"fields":["v"]}],` +
				`"tasks":[{"name":"t","accesses":[]}]}`,
			"at least one access"},
		{"bad privilege", taskJSON(`{"region":"r","field":"v","privilege":"mutate"}`), "unknown privilege"},
		{"reduce bad op", taskJSON(`{"region":"r","field":"v","privilege":"reduce","op":"xor"}`), "unknown reduction op"},
		{"batch bad op after dangling ref", `{"version":1,"tasks":[` +
			`{"name":"t0","accesses":[{"region":"ghosts[0]","field":"v","privilege":"read"}]},` +
			`{"name":"t1","accesses":[{"region":"r","field":"v","privilege":"reduce","op":"xor"}]}]}`,
			"unknown reduction op"},
		{"op on write", taskJSON(`{"region":"r","field":"v","privilege":"write","op":"sum"}`), "op on non-reduce"},
		{"kernel on read", taskJSON(`{"region":"r","field":"v","privilege":"read","kernel":{"name":"identity"}}`), "read access carries a kernel"},
		{"dangling region ref", taskJSON(`{"region":"nope","field":"v","privilege":"read"}`), "dangling reference"},
		{"malformed ref", taskJSON(`{"region":"r[","field":"v","privilege":"read"}`), "malformed region reference"},
		{"piece out of range",
			`{"version":1,"regions":[{"name":"r","dim":1,"space":[[0,9]],"fields":["v"],` +
				`"partitions":[{"name":"p","kind":"equal","pieces":2}]}],` +
				`"tasks":[{"name":"t","accesses":[{"region":"p[7]","field":"v","privilege":"read"}]}]}`,
			"piece 7 outside"},
		{"unknown task field ref", taskJSON(`{"region":"r","field":"w","privilege":"read"}`), `no field "w"`},
		{"after out of range", taskJSON(`{"region":"r","field":"v","privilege":"read"}`, 5), "after index 5"},
	}
}

type rejectRow struct{ name, in, want string }

// TestDecodeRejects feeds the decoder every row of rejects: each comes
// back as an error mentioning the offending construct, never a panic.
func TestDecodeRejects(t *testing.T) {
	for _, tc := range rejects() {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Decode panicked: %v", r)
				}
			}()
			_, err := wire.Decode(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("Decode accepted %s", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// taskJSON wraps one access JSON in a minimal workload with region r and
// field v; after, when given, adds the after list.
func taskJSON(access string, after ...int) string {
	a := ""
	if len(after) > 0 {
		parts := make([]string, len(after))
		for i, x := range after {
			parts[i] = fmt.Sprint(x)
		}
		a = `,"after":[` + strings.Join(parts, ",") + `]`
	}
	return `{"version":1,"regions":[{"name":"r","dim":1,"space":[[0,9]],"fields":["v"]}],` +
		`"tasks":[{"name":"t","accesses":[` + access + `]` + a + `}]}`
}

// TestGolden pins the canonical example workloads to their testdata files
// byte for byte: the files are json.Indent of what Encode writes, so the
// constructors, the encoder, and the corpus move together or the test
// fails. Regenerate with `go run ./internal/wire/gen`. Both forms decode,
// with either decoder, to one workload: a client that still indents talks
// to this server, and this client to a server that still runs encoding/json.
func TestGolden(t *testing.T) {
	cases := []struct {
		file string
		wl   *wire.Workload
	}{
		{"quickstart.json", wire.ExampleQuickstart()},
		{"graphsim.json", wire.ExampleGraphsim(3)},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			var compact, got bytes.Buffer
			if err := wire.Encode(&compact, tc.wl); err != nil {
				t.Fatal(err)
			}
			if err := json.Indent(&got, compact.Bytes(), "", "  "); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("encoding of %s drifted from testdata (run `go run ./internal/wire/gen`)", tc.file)
			}
			var packed bytes.Buffer
			if err := json.Compact(&packed, want); err != nil || packed.String()+"\n" != compact.String() {
				t.Fatalf("Encode is not the compact form of %s and a newline (err %v):\n%s", tc.file, err, compact.Bytes())
			}
			// decode → encode is a fixed point.
			decoded, err := wire.Decode(bytes.NewReader(want))
			if err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := wire.Encode(&again, decoded); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), compact.Bytes()) {
				t.Fatal("decode→encode is not a fixed point")
			}
			for name, body := range map[string][]byte{"indented": want, "compact": compact.Bytes()} {
				for dname, decode := range map[string]func([]byte) (*wire.Workload, error){
					"scanner": func(b []byte) (*wire.Workload, error) { return wire.Decode(bytes.NewReader(b)) },
					"stdlib":  decodeStdlib,
				} {
					if wl, err := decode(body); err != nil || !reflect.DeepEqual(wl, decoded) {
						t.Fatalf("%s body through the %s decoder: err %v, equal %v", name, dname, err, reflect.DeepEqual(wl, decoded))
					}
				}
			}
		})
	}
}

// TestEncodeMatchesMarshal holds AppendWorkload to encoding/json byte for
// byte on workloads no decoder would accept: strings that need escapes,
// nil next to empty slices and maps, a nil init spec, floats at the edges
// of the number format; and on a value JSON has no form for, to its error.
func TestEncodeMatchesMarshal(t *testing.T) {
	odd := "<a&b> \"q\" \\ \x01\t\u2028\u2029 é \xff"
	spec := &wire.FuncSpec{Name: odd, Args: map[string]float64{
		"neg zero": math.Copysign(0, -1), "tiny": 1e-7, "huge": 1e21, "third": 1.0 / 3, "sub": 5e-324,
		"max": math.MaxFloat64, "int": -42, odd: 0.1, "": 1e15,
	}}
	edge := &wire.Workload{Version: wire.Version, Name: odd, Regions: []wire.RegionDecl{
		{Name: "", Space: [][]int64{nil, {}, {-1, 1 << 62}}, Fields: []string{}, Init: map[string]*wire.FuncSpec{"x": nil, "y": spec},
			Partitions: []wire.PartitionDecl{{Spaces: [][][]int64{nil, {}, {nil}}, Relation: spec, Color: &wire.FuncSpec{Args: map[string]float64{}}}}},
		{Init: map[string]*wire.FuncSpec{}, Partitions: []wire.PartitionDecl{}},
	}, Tasks: []wire.TaskDecl{
		{Accesses: []wire.AccessDecl{{Kernel: spec}, {Op: odd, Kernel: spec}}, After: []int{}},
		{Name: odd, Accesses: []wire.AccessDecl{}, After: []int{0, -1}},
	}}
	for name, wl := range map[string]*wire.Workload{
		"edge": edge, "empty": {}, "nil": nil, "quickstart": wire.ExampleQuickstart(), "graphsim": wire.ExampleGraphsim(3),
		"serve_batch": batches[0], "serve_query": batches[1],
	} {
		want, err := json.Marshal(wl)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wire.AppendWorkload([]byte("prefix"), wl)
		if err != nil || string(got) != "prefix"+string(want)+"\n" {
			t.Fatalf("%s: AppendWorkload (err %v)\n got %s\nwant prefix%s", name, err, got, want)
		}
		if enc := encode(t, wl); string(enc) != string(want)+"\n" {
			t.Fatalf("%s: Encode\n got %s\nwant %s", name, enc, want)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		spec.Args["bad"] = v
		_, want := json.Marshal(edge)
		if got, err := wire.AppendWorkload(nil, edge); got != nil || err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("AppendWorkload with argument %v = %q, %v; want no body and %v", v, got, err, want)
		}
	}
}

// stringData is the address of s's bytes.
func stringData(s string) uintptr { return reflect.ValueOf(s).Pointer() }

// TestDecodeSharesRepeats: one decoded body holds one *FuncSpec per
// distinct spec text, one copy of each repeated string and one slice per
// distinct access list, and is still deeply equal to what encoding/json
// makes of it.
func TestDecodeSharesRepeats(t *testing.T) {
	body := encode(t, batches[0])
	wl, err := wire.Decode(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := decodeStdlib(body)
	if err != nil || !reflect.DeepEqual(wl, ref) {
		t.Fatalf("Decode and encoding/json disagree (err %v)", err)
	}
	specs := map[string]*wire.FuncSpec{}
	names := map[string]uintptr{}
	lists := map[string]*wire.AccessDecl{}
	for _, task := range wl.Tasks {
		text, err := json.Marshal(task.Accesses)
		if err != nil {
			t.Fatal(err)
		}
		if first, ok := lists[string(text)]; ok && first != &task.Accesses[0] {
			t.Fatalf("access list %s decoded into two slices", text)
		}
		lists[string(text)] = &task.Accesses[0]
		for _, a := range task.Accesses {
			text, err := json.Marshal(a.Kernel)
			if err != nil {
				t.Fatal(err)
			}
			if first, ok := specs[string(text)]; ok && first != a.Kernel {
				t.Fatalf("spec %s decoded into two pointers", text)
			}
			specs[string(text)] = a.Kernel
			for _, s := range []string{task.Name, a.Region, a.Field, a.Privilege, a.Op} {
				if first, ok := names[s]; ok && first != stringData(s) {
					t.Fatalf("string %q decoded into two copies", s)
				}
				names[s] = stringData(s)
			}
		}
	}
	if len(specs) != 4 || len(lists) != 32 {
		t.Fatalf("%d distinct kernel specs and %d access lists, want 4 and 32", len(specs), len(lists))
	}
}

// TestSharedListsCheckedAlike: launches built by hand that share an access
// list, whole or a prefix of it, are checked and launched like launches
// with lists of their own, and an error in a shared list names the first
// launch that holds it.
func TestSharedListsCheckedAlike(t *testing.T) {
	read := []wire.AccessDecl{{Region: "cells", Field: "val", Privilege: "read"}, {Region: "blocks[1]", Field: "val", Privilege: "read"}}
	bad := []wire.AccessDecl{{Region: "cells", Field: "nope", Privilege: "read"}}
	for _, tc := range []struct {
		tasks []wire.TaskDecl
		want  string
	}{
		{[]wire.TaskDecl{{Name: "a", Accesses: read}, {Name: "b", Accesses: read[:1]}, {Name: "c", Accesses: read},
			{Name: "d", Accesses: read[:1], After: []int{2}}, {Name: "e", Accesses: read[1:]}}, ""},
		{[]wire.TaskDecl{{Name: "a", Accesses: read}, {Name: "b", Accesses: bad}, {Name: "c", Accesses: bad}}, `task "b" access 0: region "cells" has no field "nope"`},
		{[]wire.TaskDecl{{Name: "a", Accesses: read}, {Name: "", Accesses: read}}, "task 1 has no name"},
		{[]wire.TaskDecl{{Name: "a", Accesses: read}, {Name: "b", Accesses: read, After: []int{1}}}, `task "b": after index 1 outside [0, 1)`},
	} {
		rt, env := freshEnv(t)
		if _, err := env.Apply(wire.ExampleQuickstart()); err != nil {
			t.Fatal(err)
		}
		futs, err := env.Apply(&wire.Workload{Version: wire.Version, Tasks: tc.tasks})
		switch {
		case tc.want == "" && (err != nil || len(futs) != len(tc.tasks)):
			t.Fatalf("launched %d of %d tasks, err %v", len(futs), len(tc.tasks), err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Fatalf("Apply error = %v, want %q", err, tc.want)
		}
		rt.Wait()
	}
}

// TestRejectMessagesStable: a body with several bad map entries gets one
// message on every decode, naming the smallest offending key.
func TestRejectMessagesStable(t *testing.T) {
	fill := `{"name":"fill","args":{"value":1}}`
	for _, tc := range []struct{ in, want string }{
		{regionJSON(`,"init":{"c":` + fill + `,"a":` + fill + `,"b":` + fill + `}`), `init for unknown field "a"`},
		{regionJSON(`,"init":{"v":{"name":"fill","args":{"z":1,"value":1,"x":2,"y":3}}}`), `unknown argument "x"`},
	} {
		for i := 0; i < 50; i++ {
			if _, err := wire.Decode(strings.NewReader(tc.in)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decode %d: error = %v, want %s", i, err, tc.want)
			}
		}
	}
}

// TestApplyQuickstart replays the quickstart workload through an Env and
// checks the same invariants the hand-coded example asserts.
func TestApplyQuickstart(t *testing.T) {
	rt := visibility.New(visibility.Config{Validate: true})
	defer rt.Close()
	env := wire.NewEnv(rt)
	futs, err := env.Apply(wire.ExampleQuickstart())
	if err != nil {
		t.Fatal(err)
	}
	if len(futs) != 5 {
		t.Fatalf("launched %d tasks, want 5", len(futs))
	}
	cells := env.Region("cells")
	if cells == nil {
		t.Fatal("workload did not declare cells")
	}
	snap := rt.Read(cells, "val")
	var sum float64
	snap.Each(func(_ visibility.Point, v float64) { sum += v })
	if want := float64(99*100/2 + 40*10); sum != want {
		t.Fatalf("sum = %v, want %v", sum, want)
	}
}

// TestApplyGraphsimMatchesHandCoded replays the Figure 1 workload through
// the wire layer and requires point-identical results to the hand-coded
// program from the graphsim example: the wire format is a faithful
// encoding, not an approximation.
func TestApplyGraphsimMatchesHandCoded(t *testing.T) {
	const iterations = 3
	// Wire path.
	rtW := visibility.New(visibility.Config{Validate: true})
	defer rtW.Close()
	env := wire.NewEnv(rtW)
	if _, err := env.Apply(wire.ExampleGraphsim(iterations)); err != nil {
		t.Fatal(err)
	}
	graphW := env.Region("N")

	// Hand-coded path, as in examples/graphsim.
	rtH := visibility.New(visibility.Config{Validate: true})
	defer rtH.Close()
	graphH := rtH.CreateRegion("N", visibility.Line(0, 17), "up", "down")
	graphH.Init("up", func(p visibility.Point) float64 { return float64(p.C[0]) })
	primary := graphH.PartitionEqual("P", 3)
	neighbors := func(p visibility.Point) []visibility.Point {
		var out []visibility.Point
		for d := int64(1); d <= 4; d++ {
			out = append(out, visibility.Pt((p.C[0]-d+18)%18), visibility.Pt((p.C[0]+d)%18))
		}
		return out
	}
	ghost := graphH.PartitionImage("reach", primary, neighbors).Minus("G", primary)
	for iter := 0; iter < iterations; iter++ {
		for i := 0; i < 3; i++ {
			rtH.Launch(visibility.TaskSpec{
				Name: "t1",
				Accesses: []visibility.Access{
					visibility.Write(primary.Sub(i), "up"),
					visibility.Reduce(visibility.OpSum, ghost.Sub(i), "down"),
				},
				Kernel: visibility.Kernel{
					Write:  func(_ int, _ visibility.Point, in float64) float64 { return in*0.5 + 1 },
					Reduce: func(int, visibility.Point) float64 { return 0.25 },
				},
			})
		}
		for i := 0; i < 3; i++ {
			rtH.Launch(visibility.TaskSpec{
				Name: "t2",
				Accesses: []visibility.Access{
					visibility.Write(primary.Sub(i), "down"),
					visibility.Reduce(visibility.OpSum, ghost.Sub(i), "up"),
				},
				Kernel: visibility.Kernel{
					Write:  func(_ int, _ visibility.Point, in float64) float64 { return in * 0.5 },
					Reduce: func(int, visibility.Point) float64 { return 0.125 },
				},
			})
		}
	}

	for _, f := range []string{"up", "down"} {
		w, h := rtW.Read(graphW, f), rtH.Read(graphH, f)
		if w.Len() != h.Len() {
			t.Fatalf("field %s: %d vs %d points", f, w.Len(), h.Len())
		}
		h.Each(func(p visibility.Point, want float64) {
			if got, ok := w.Get(p); !ok || got != want {
				t.Fatalf("field %s at %v: wire %v, hand-coded %v", f, p, got, want)
			}
		})
	}
}

// TestApplyBatchAgainstSession exercises the batch path: a second
// workload with no region declarations resolves against state the first
// one declared, and bad batches launch nothing.
func TestApplyBatchAgainstSession(t *testing.T) {
	rt := visibility.New(visibility.Config{})
	defer rt.Close()
	env := wire.NewEnv(rt)
	if _, err := env.Apply(wire.ExampleQuickstart()); err != nil {
		t.Fatal(err)
	}

	batch := &wire.Workload{
		Version: wire.Version,
		Tasks: []wire.TaskDecl{{
			Name: "bump2",
			Accesses: []wire.AccessDecl{{
				Region: "window[0]", Field: "val", Privilege: "reduce", Op: "sum",
				Kernel: &wire.FuncSpec{Name: "fill", Args: map[string]float64{"value": 1}},
			}},
		}},
	}
	if _, err := env.Apply(batch); err != nil {
		t.Fatalf("batch against session state: %v", err)
	}

	bad := &wire.Workload{
		Version: wire.Version,
		Tasks: []wire.TaskDecl{
			{Name: "ok", Accesses: []wire.AccessDecl{{Region: "cells", Field: "val", Privilege: "read"}}},
			{Name: "bad", Accesses: []wire.AccessDecl{{Region: "ghosts[0]", Field: "val", Privilege: "read"}}},
		},
	}
	if _, err := env.Apply(bad); err == nil || !strings.Contains(err.Error(), "dangling reference") {
		t.Fatalf("bad batch error = %v, want dangling reference", err)
	}
	// The rejected batch launched nothing: the sum reflects exactly the
	// quickstart result plus the one extra reduction.
	snap := rt.Read(env.Region("cells"), "val")
	var sum float64
	snap.Each(func(_ visibility.Point, v float64) { sum += v })
	if want := float64(99*100/2+40*10) + 40; sum != want {
		t.Fatalf("sum = %v, want %v", sum, want)
	}

	// A redeclaration of an existing name is rejected before declaring.
	if _, err := env.Apply(wire.ExampleQuickstart()); err == nil || !strings.Contains(err.Error(), "already declared") {
		t.Fatalf("redeclaration error = %v, want already declared", err)
	}
}

// TestApplyAfterFutures checks the After edges turn into future
// dependences: a chain of reductions ordered only by After must fold in
// program order (sum is order-independent, so order via write-read).
func TestApplyAfterFutures(t *testing.T) {
	rt := visibility.New(visibility.Config{Validate: true})
	defer rt.Close()
	env := wire.NewEnv(rt)
	wl := &wire.Workload{
		Version: wire.Version,
		Regions: []wire.RegionDecl{{
			Name: "r", Dim: 1, Space: [][]int64{{0, 3}}, Fields: []string{"v"},
		}},
		Tasks: []wire.TaskDecl{
			{Name: "a", Accesses: []wire.AccessDecl{{Region: "r", Field: "v", Privilege: "write",
				Kernel: &wire.FuncSpec{Name: "fill", Args: map[string]float64{"value": 2}}}}},
			{Name: "b", After: []int{0}, Accesses: []wire.AccessDecl{{Region: "r", Field: "v", Privilege: "write",
				Kernel: &wire.FuncSpec{Name: "affine", Args: map[string]float64{"scale": 3, "offset": 1}}}}},
		},
	}
	futs, err := env.Apply(wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range futs {
		f.Wait()
	}
	if v, _ := rt.Read(env.Region("r"), "v").Get(visibility.Pt(0)); v != 7 {
		t.Fatalf("v = %v, want 7 (= 2*3+1 in program order)", v)
	}
	// After edges appear in the dependence graph.
	deps := rt.Dependences(env.Region("r"))
	if len(deps) < 2 || len(deps[1].Deps) == 0 {
		t.Fatalf("dependences = %+v, want task 1 to depend on task 0", deps)
	}
}

// TestEnvFromRestore round-trips a session through a checkpoint and keeps
// serving wire batches against the restored regions.
func TestEnvFromRestore(t *testing.T) {
	rt := visibility.New(visibility.Config{})
	defer rt.Close()
	env := wire.NewEnv(rt)
	if _, err := env.Apply(wire.ExampleQuickstart()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rt.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	rt2, roots, err := visibility.Restore(&buf, visibility.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	env2, err := wire.EnvFromRestore(rt2, roots)
	if err != nil {
		t.Fatal(err)
	}
	batch := &wire.Workload{
		Version: wire.Version,
		Tasks: []wire.TaskDecl{{
			Name: "post-restore",
			Accesses: []wire.AccessDecl{{Region: "blocks[0]", Field: "val", Privilege: "write",
				Kernel: &wire.FuncSpec{Name: "affine", Args: map[string]float64{"scale": 1, "offset": 1}}}},
		}},
	}
	if _, err := env2.Apply(batch); err != nil {
		t.Fatal(err)
	}
	if v, _ := rt2.Read(env2.Region("cells"), "val").Get(visibility.Pt(5)); v != 6 {
		t.Fatalf("restored cells[5]+1 = %v, want 6", v)
	}
}

// TestRegistryNames pins the built-in function names (additions are fine
// — removals break workload files in the wild): an unknown kernel,
// relation or color is rejected with an error naming every builtin of
// that kind.
func TestRegistryNames(t *testing.T) {
	unknown := &wire.FuncSpec{Name: "nope"}
	mod := &wire.FuncSpec{Name: "mod", Args: map[string]float64{"axis": 0, "n": 2}}
	region := func(init *wire.FuncSpec, parts ...wire.PartitionDecl) *wire.Workload {
		r := wire.RegionDecl{Name: "r", Dim: 1, Space: [][]int64{{0, 7}}, Fields: []string{"v"}, Partitions: parts}
		if init != nil {
			r.Init = map[string]*wire.FuncSpec{"v": init}
		}
		return &wire.Workload{Version: wire.Version, Regions: []wire.RegionDecl{r}}
	}
	cases := []struct {
		kind string
		wl   *wire.Workload
		want []string
	}{
		{"kernel", region(unknown), []string{"affine", "coord", "fill", "identity"}},
		{"relation", region(nil,
			wire.PartitionDecl{Name: "p", Kind: "bycolor", Pieces: 2, Color: mod},
			wire.PartitionDecl{Name: "q", Kind: "image", Source: "p", Relation: unknown}),
			[]string{"ring", "window"}},
		{"color", region(nil, wire.PartitionDecl{Name: "p", Kind: "bycolor", Pieces: 2, Color: unknown}),
			[]string{"block", "mod"}},
	}
	for _, tc := range cases {
		err := tc.wl.Validate()
		if err == nil || !strings.Contains(err.Error(), "unknown "+tc.kind+` "nope"`) {
			t.Fatalf("%s: error = %v, want unknown %s", tc.kind, err, tc.kind)
		}
		for _, name := range tc.want {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%s: error %q does not name builtin %q", tc.kind, err, name)
			}
		}
	}
}
