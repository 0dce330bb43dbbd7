package wire_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"visibility"
	"visibility/internal/server/client"
	"visibility/internal/wire"
)

// graphsimGolden is the server golden every stack serves on graphsim.
var graphsimGolden = filepath.Join("..", "server", "testdata", "explain_graphsim.golden")

// explainBodies returns the explain bodies a file holds, in file order:
// the served ones a server golden pins, or seed-only ones.
func explainBodies(tb testing.TB, path string) [][]byte {
	tb.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if bytes.HasPrefix(line, []byte(`{"explain":`)) {
			out = append(out, line)
		}
	}
	if len(out) == 0 {
		tb.Fatalf("%s holds no explain body", path)
	}
	return out
}

// FuzzExplainBody builds an explain body from fuzzed fields and holds both
// directions to encoding/json: AppendExplain to what the Encoder writes of
// the map the route used to render, ParseExplain to what json.Unmarshal
// makes of the body in the client's type. A negative src is a query that
// named no source; a negative edges count a nil edge list. Every edge of
// the server golden seeds it, and so do the naive painter's bodies: no
// session serves that oracle, but its long edge lists, most without an
// overlap, are bodies the served analyzers rarely write.
func FuzzExplainBody(f *testing.F) {
	for _, path := range []string{graphsimGolden, filepath.Join("testdata", "explain_paint-naive.bodies")} {
		for _, body := range explainBodies(f, path) {
			var v client.ExplainResult
			if err := json.Unmarshal(body, &v); err != nil {
				f.Fatal(err)
			}
			ex, edges := v.Explain, v.Explain.Edges
			if len(edges) == 0 {
				edges = []visibility.EdgeExplain{{}}
			}
			for _, e := range edges {
				f.Add(v.Region, ex.Name, e.SrcName, e.Kind, e.Field, e.SrcPriv, e.Overlap, ex.Task, e.SrcReq, len(ex.Edges), -1, false)
			}
		}
	}
	f.Add("N", "t2", "t1", "region", "down", "reduce+", "[2..5]", 7, 1, 1, 1, true)
	f.Add(`q"u\ote`, "<b>&amp;</b>", "\x00\x1f\x7f", "é  ", "\t\n\r", "😀", "\xed\xa0\x80\u2028", -3, -1, 3, 0, false)
	f.Add("", "", "", "", "", "", "", 0, 0, 0, -1, false)
	f.Fuzz(func(t *testing.T, region, name, srcName, kind, field, priv, overlap string, task, req, edges, src int, must bool) {
		ex := &visibility.TaskExplain{Task: task, Name: name}
		if edges >= 0 {
			ex.Edges = []visibility.EdgeExplain{}
		}
		for i := 0; i < edges%4; i++ {
			e := visibility.EdgeExplain{Src: req + i, SrcName: srcName, Dst: task, DstName: name, Kind: kind, SrcReq: req - i, DstReq: i}
			if i%2 == 0 { // the odd edges leave every omitempty key out
				e.Field, e.SrcPriv, e.DstPriv, e.Overlap = field, priv, kind, overlap
			}
			ex.Edges = append(ex.Edges, e)
		}
		m := map[string]any{"region": region, "explain": ex}
		if src >= 0 {
			m["src"], m["mustPrecede"] = src, must
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(m); err != nil {
			t.Fatal(err)
		}
		got := wire.AppendExplain(nil, &wire.ExplainResult{Region: region, Explain: ex, Src: src, MustPrecede: must})
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("AppendExplain wrote\n%s\nencoding/json\n%s", got, want.Bytes())
		}
		parsed, err := wire.ParseExplain(got)
		if err != nil {
			t.Fatalf("ParseExplain(%s): %v", got, err)
		}
		var ref client.ExplainResult
		if err := json.Unmarshal(got, &ref); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(parsed, &ref) {
			t.Fatalf("ParseExplain(%s) = %+v, encoding/json %+v", got, parsed, &ref)
		}
	})
}

// TestParseExplainRejects: ParseExplain reads what AppendExplain writes
// and nothing looser.
func TestParseExplainRejects(t *testing.T) {
	for _, in := range []string{``, `{"mustPrecede":tru}`, `{"mustPrecede":1}`, `{"mustPrecede":"true"}`, `{"src":1.5}`,
		`{"explain":{"edges":[{"srcReq":-1,"srcReq":-1}]}}`, `{"explain":[]}`, `{"Region":"N"}`, `{"region":"N"} x`} {
		if _, err := wire.ParseExplain([]byte(in)); err == nil || !strings.Contains(err.Error(), "decoding explain") {
			t.Errorf("ParseExplain(%q) error = %v, want a decoding error", in, err)
		}
	}
	if v, err := wire.ParseExplain([]byte(`{"mustPrecede":false,"explain":null,"src":null}`)); err != nil || *v != (wire.ExplainResult{}) {
		t.Errorf("ParseExplain of false and nulls = %+v, %v; want the zero result", v, err)
	}
}

// TestParseExplainAllocations pins ParseExplain of the graphsim golden's
// two-edge body for task 3 at 5 allocations: the scanner, the body's one
// copy, the result, the explanation and the edges (json.Unmarshal took
// 29). Every name is a window of that one copy, the repeated ones
// included.
func TestParseExplainAllocations(t *testing.T) {
	body := explainBodies(t, graphsimGolden)[3]
	v, err := wire.ParseExplain(body)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := ^uintptr(0), uintptr(0)
	for _, e := range v.Explain.Edges {
		for _, name := range []string{v.Region, v.Explain.Name, e.SrcName, e.DstName, e.Kind, e.Field, e.SrcPriv, e.DstPriv, e.Overlap} {
			at := stringData(name)
			lo, hi = min(lo, at), max(hi, at+uintptr(len(name)))
		}
	}
	if hi-lo > uintptr(len(body)) {
		t.Errorf("the parsed names span %d bytes, more than the %d-byte body: not windows of one copy", hi-lo, len(body))
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := wire.ParseExplain(body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5 {
		t.Fatalf("ParseExplain of the %d-byte body allocates %.0f times, want 5", len(body), allocs)
	}
}

// BenchmarkWireExplain renders and parses the graphsim golden's explain
// body for task 3, serve_query's answer shape: two region edges.
func BenchmarkWireExplain(b *testing.B) {
	body := explainBodies(b, graphsimGolden)[3]
	v, err := wire.ParseExplain(body)
	if err != nil {
		b.Fatal(err)
	}
	v.Src = -1 // the query named no source
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body = wire.AppendExplain(body[:0], v)
		if _, err := wire.ParseExplain(body); err != nil {
			b.Fatal(err)
		}
	}
}
