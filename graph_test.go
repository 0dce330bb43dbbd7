package visibility_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"visibility"
)

// TestOneGraph checks that every view of the discovered dependence graph
// reads the same rows: a producer named by both the analyzer and After is
// one edge, a future-only edge is an edge, and a launch made through Read
// has a row like any other.
func TestOneGraph(t *testing.T) {
	rt := visibility.New(visibility.Config{})
	defer rt.Close()
	g := rt.CreateRegion("g", visibility.Line(0, 7), "v")
	halves := g.PartitionEqual("H", 2)
	write := func(name string, r *visibility.Region, after ...visibility.Future) visibility.Future {
		return rt.Launch(visibility.TaskSpec{Name: name, Accesses: []visibility.Access{visibility.Write(r, "v")}, After: after})
	}

	w0 := write("w0", halves.Sub(0))
	write("both", halves.Sub(0), w0)   // the analyzer finds w0 too
	write("future", halves.Sub(1), w0) // no region in common with w0
	rt.Read(g, "v")                    // task 3, an inline read of both halves
	write("all", g)

	want := [][]int{nil, {0}, {0}, {1, 2}, {1, 2, 3}}
	deps := rt.Dependences(g)
	if len(deps) != len(want) {
		t.Fatalf("Dependences has %d rows, want %d", len(deps), len(want))
	}
	edges := 0
	for i, ti := range deps {
		if ti.ID != i || !reflect.DeepEqual(ti.Deps, want[i]) {
			t.Errorf("Dependences[%d] = task %d %q deps %v, want deps %v", i, ti.ID, ti.Name, ti.Deps, want[i])
		}
		edges += len(ti.Deps)

		var srcs []int
		for _, e := range rt.Explain(g, i).Edges {
			srcs = append(srcs, e.Src)
		}
		if !reflect.DeepEqual(srcs, ti.Deps) {
			t.Errorf("Explain(%d) names producers %v, Dependences %v", i, srcs, ti.Deps)
		}
	}

	var dot bytes.Buffer
	if err := rt.WriteDOTCrit(g, &dot); err != nil {
		t.Fatal(err)
	}
	for i, ti := range deps {
		for _, d := range ti.Deps {
			// A critical-path edge is drawn highlighted, any other plain.
			edge := fmt.Sprintf("  t%d -> t%d", d, i)
			if !bytes.Contains(dot.Bytes(), []byte(edge+";\n")) && !bytes.Contains(dot.Bytes(), []byte(edge+" [color=red")) {
				t.Errorf("WriteDOTCrit lacks %q", edge)
			}
		}
	}
	if got := bytes.Count(dot.Bytes(), []byte(" -> ")); got != edges {
		t.Errorf("WriteDOTCrit draws %d edges, Dependences has %d", got, edges)
	}
	if sum := rt.CriticalPath(g, 0); sum.Tasks != len(deps) {
		t.Errorf("CriticalPath sees %d tasks, Dependences %d", sum.Tasks, len(deps))
	}
	if !rt.MustPrecede(g, 0, 4) || rt.MustPrecede(g, 1, 2) {
		t.Errorf("MustPrecede(0, 4) = %v, MustPrecede(1, 2) = %v; want true, false", rt.MustPrecede(g, 0, 4), rt.MustPrecede(g, 1, 2))
	}
}
