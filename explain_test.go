package visibility_test

import (
	"bytes"
	"testing"

	"visibility"
)

// TestExplainSurvivingBounds explains the last reader of a 10⁴-launch
// stream on a Runtime built with a zero Config. Task 0 writes all of v;
// four launches along the way overwrite blocks of it, and everything else
// writes field w. The edge from task 0 reports exactly the bounds that no
// write reached, and the graph queries answer without any option.
func TestExplainSurvivingBounds(t *testing.T) {
	const n = 10_000
	rt := visibility.New(visibility.Config{})
	defer rt.Close()
	g := rt.CreateRegion("g", visibility.Line(0, 99), "v", "w")
	blocks := g.PartitionEqual("B", 10) // [0..9] … [90..99]
	write := func(r *visibility.Region, field string) {
		rt.Launch(visibility.TaskSpec{Name: "write", Accesses: []visibility.Access{visibility.Write(r, field)}})
	}
	overwrites := map[int]int{1000: 0, 2000: 1, 3000: 2, 5000: 9} // launch → block of v
	write(g, "v")
	for i := 1; i < n-1; i++ {
		if b, ok := overwrites[i]; ok {
			write(blocks.Sub(b), "v")
		} else {
			write(blocks.Sub(i%10), "w")
		}
	}
	last := n - 1
	rt.Launch(visibility.TaskSpec{Name: "reader", Accesses: []visibility.Access{visibility.Read(g, "v")}})
	rt.Wait()

	ex := rt.Explain(g, last)
	if ex == nil || len(ex.Edges) != 5 {
		t.Fatalf("Explain(%d) = %+v, want edges from 0 and the four overwrites", last, ex)
	}
	if e := ex.Edges[0]; e.Src != 0 || e.Kind != "region" || e.Field != "v" || e.Overlap != "[30..89]" {
		t.Errorf("edge from task 0 = %+v, want region on v over [30..89]", e)
	}
	if e := ex.Edges[4]; e.Src != 5000 || e.Overlap != "[90..99]" {
		t.Errorf("edge from task 5000 = %+v, want overlap [90..99]", e)
	}
	if !rt.MustPrecede(g, 0, last) || rt.MustPrecede(g, 1, last) {
		t.Error("MustPrecede: want 0 before the reader and write 1 (field w) unordered with it")
	}
	if sum := rt.CriticalPath(g, 3); sum == nil || sum.Tasks != n || len(sum.Path) == 0 {
		t.Errorf("CriticalPath = %+v", sum)
	}
	var dot bytes.Buffer
	if err := rt.WriteDOTCrit(g, &dot); err != nil || !bytes.Contains(dot.Bytes(), []byte("color=red")) {
		t.Errorf("WriteDOTCrit: err %v, no highlighted path", err)
	}
}
