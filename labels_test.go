package visibility

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"visibility/internal/core"
	"visibility/internal/graph"
)

// reference is a from-scratch forward pass over a finished stream: each
// task's weight, earliest start and finish, critical predecessor and
// smallest ancestor, the makespan and the path end, computed from the
// tasks and their rows alone.
type reference struct {
	weight, start, finish []float64
	pred, low             []int
	work, length          float64
	end                   int
	// predTies counts tasks with two predecessors at the maximal finish;
	// endTies counts tasks after end whose finish is the makespan too.
	predTies, endTies int
}

func forwardPass(tasks []*core.Task, rows [][]int) reference {
	n := len(tasks)
	r := reference{weight: make([]float64, n), start: make([]float64, n), finish: make([]float64, n), pred: make([]int, n), low: lowest(rows), end: -1}
	for i, t := range tasks {
		w := len(t.Reqs)
		for _, req := range t.Reqs {
			w += int(req.Region.Space.Volume())
		}
		r.weight[i] = float64(w)
		for _, p := range rows[i] {
			r.start[i] = max(r.start[i], r.finish[p])
		}
		r.pred[i] = -1
		for _, p := range rows[i] {
			if r.finish[p] == r.start[i] {
				if r.pred[i] != -1 {
					r.predTies++
					continue
				}
				r.pred[i] = p
			}
		}
		r.finish[i] = r.start[i] + r.weight[i]
		r.length = max(r.length, r.finish[i])
		r.work += r.weight[i]
	}
	for i := range tasks {
		if r.finish[i] == r.length {
			if r.end == -1 {
				r.end = i
			} else {
				r.endTies++
			}
		}
	}
	return r
}

// lowest returns each task's smallest ancestor, its own ID at a root, by
// a backward search of its own from every task: reachability, not the
// launch-time fold over the row's labels.
func lowest(rows [][]int) []int {
	low := make([]int, len(rows))
	for i := range rows {
		low[i] = i
		seen, stack := map[int]bool{}, []int{i}
		for len(stack) > 0 {
			t := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range rows[t] {
				if !seen[p] {
					seen[p], low[i] = true, min(low[i], p)
					stack = append(stack, p)
				}
			}
		}
	}
	return low
}

// summary is the profile CriticalPath must return for the reference.
func (r reference) summary(tasks []*core.Task, k int) *CritSummary {
	out := &CritSummary{Tasks: len(tasks), Length: r.length, Work: r.work, Path: []CritTask{}, Top: []CritContributor{}}
	if r.length > 0 {
		out.Parallelism = r.work / r.length
	}
	var path []int
	for id := r.end; id != -1; id = r.pred[id] {
		path = append([]int{id}, path...)
	}
	for _, id := range path {
		out.Path = append(out.Path, CritTask{Task: id, Name: tasks[id].Name, Weight: r.weight[id], Start: r.start[id], Finish: r.finish[id]})
		out.Top = append(out.Top, CritContributor{Task: id, Name: tasks[id].Name, Weight: r.weight[id], SharePct: 100 * (r.weight[id] / r.length)})
	}
	sort.SliceStable(out.Top, func(i, j int) bool { return out.Top[i].Weight > out.Top[j].Weight })
	if k > 0 && k < len(out.Top) {
		out.Top = out.Top[:k]
	}
	return out
}

// checkLabels holds the labels g's tree fixed at launch, and every profile
// CriticalPath derives from them, to the reference pass.
func checkLabels(t *testing.T, rt *Runtime, g *Region) (predTies, endTies int) {
	t.Helper()
	ts := g.tree
	ref := forwardPass(ts.stream.Tasks, ts.graph.Rows)
	c := &ts.graph
	if len(c.Labels) != len(ts.stream.Tasks) {
		t.Fatalf("%d labels for %d tasks", len(c.Labels), len(ts.stream.Tasks))
	}
	for i, l := range c.Labels {
		if want := (graph.Label{Weight: ref.weight[i], Finish: ref.finish[i], Pred: ref.pred[i], Low: ref.low[i]}); l != want {
			t.Fatalf("task %d: label %+v, reference %+v", i, l, want)
		}
	}
	if c.Work != ref.work || c.Length != ref.length || c.End != ref.end {
		t.Fatalf("totals: work %v length %v end %d, reference %v %v %d",
			c.Work, c.Length, c.End, ref.work, ref.length, ref.end)
	}
	for _, k := range []int{0, 1, 3, 1 << 20} {
		if got, want := rt.CriticalPath(g, k), ref.summary(ts.stream.Tasks, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("CriticalPath(k=%d) = %+v\nreference %+v", k, got, want)
		}
	}
	return ref.predTies, ref.endTies
}

// launchRandomStream launches seed's stream on rt, waits for it and
// returns its region: a random loop body over two aliased partitions of
// one region, mixing writes, reads and reductions with future edges and
// inline Reads, repeated so an autotraced runtime replays it, then a
// closing barrier. The stream depends on the seed alone, never on rt's
// configuration.
func launchRandomStream(rt *Runtime, seed int64) *Region {
	rng := rand.New(rand.NewSource(seed))
	g := rt.CreateRegion("g", Line(0, 31), "a", "b")
	parts := []*Partition{g.PartitionEqual("P", 4), g.PartitionEqual("Q", 8)}
	fields := []string{"a", "b"}

	// An After names a launch a fixed distance back.
	type launch struct {
		read     string // the field of an inline Read of g, if any
		accesses []func() Access
		back     []int
	}
	body := make([]launch, 4+rng.Intn(8))
	for i := range body {
		if rng.Intn(6) == 0 {
			body[i].read = fields[rng.Intn(2)]
			continue
		}
		for fi, f := range fields {
			if fi > 0 && rng.Intn(2) == 0 {
				break
			}
			r := parts[rng.Intn(2)]
			sub := r.Sub(rng.Intn(len(r.p.Subregions)))
			switch rng.Intn(3) {
			case 0:
				body[i].accesses = append(body[i].accesses, func() Access { return Read(sub, f) })
			case 1:
				body[i].accesses = append(body[i].accesses, func() Access { return Write(sub, f) })
			default:
				body[i].accesses = append(body[i].accesses, func() Access { return Reduce(OpSum, sub, f) })
			}
		}
		for rng.Intn(3) == 0 {
			body[i].back = append(body[i].back, 1+rng.Intn(6))
		}
	}
	var futures []Future
	for rep := 0; rep < 8; rep++ {
		for _, l := range body {
			if l.read != "" {
				rt.Read(g, l.read)
				futures = append(futures, Future{})
				continue
			}
			spec := TaskSpec{Name: fmt.Sprintf("t%d", len(l.accesses))}
			for _, a := range l.accesses {
				spec.Accesses = append(spec.Accesses, a())
			}
			for _, b := range l.back {
				if b <= len(futures) && futures[len(futures)-b].done != nil {
					spec.After = append(spec.After, futures[len(futures)-b])
				}
			}
			futures = append(futures, rt.Launch(spec))
		}
	}
	// A closing barrier and two equal writes after it: both finish at the
	// makespan, and the path ends at the first.
	rt.Launch(TaskSpec{Name: "barrier", Accesses: []Access{Write(g, "a"), Write(g, "b")}})
	for i := 0; i < 2; i++ {
		rt.Launch(TaskSpec{Name: "tail", Accesses: []Access{Write(parts[0].Sub(i), "a")}})
	}
	rt.Wait()
	return g
}

// TestLaunchLabelsMatchForwardPass holds the critical-path labels fixed at
// launch to a forward pass over the finished graph, on launchRandomStream's
// streams, under every analyzer, autotraced or not. Equal pieces make
// finish ties common, so the smallest-ID tie-breaks, for the critical
// predecessor and the path end, are exercised; the test checks that they
// were.
func TestLaunchLabelsMatchForwardPass(t *testing.T) {
	var predTies, endTies int
	var replayed int64
	for seed := int64(1); seed <= 24; seed++ {
		algs := []string{"raycast", "warnock", "paint"}
		rt := New(Config{Algorithm: algs[seed%3], AutoTrace: seed%4 == 0})
		g := launchRandomStream(rt, seed)
		p, e := checkLabels(t, rt, g)
		predTies += p
		endTies += e
		replayed += rt.AutoTraceStats(g).Trace.Replayed
		rt.Close()
	}
	if predTies == 0 || endTies == 0 || replayed == 0 {
		t.Errorf("streams had %d predecessor ties, %d path-end ties and %d replayed launches; want all three",
			predTies, endTies, replayed)
	}
}

// TestCriticalPathAgreesAcrossStacks holds the critical-path profile to
// the workload: analyzers may differ in transitively implied edges, as
// the painter's witness-less ones do, but not in the precedence order, so
// every analyzer, with and without the autotracer, must report the same
// profile of each of launchRandomStream's streams, replayed launches
// included.
func TestCriticalPathAgreesAcrossStacks(t *testing.T) {
	var replayed int64
	for seed := int64(1); seed <= 100; seed++ {
		var want *CritSummary
		for _, auto := range []bool{false, true} {
			for _, alg := range []string{"raycast", "warnock", "paint"} {
				rt := New(Config{Algorithm: alg, AutoTrace: auto})
				g := launchRandomStream(rt, seed)
				got := rt.CriticalPath(g, 0)
				replayed += rt.AutoTraceStats(g).Trace.Replayed
				rt.Close()
				if want == nil {
					want = got
				} else if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: %s (autotrace %v) CriticalPath = %+v\nraycast's %+v", seed, alg, auto, got, want)
				}
			}
		}
	}
	if replayed == 0 {
		t.Error("no autotraced stack replayed a launch; the comparison pins nothing about replay")
	}
}

// TestLabelsEmptyAndOneTask covers the edges of the label table: a
// runtime that has launched nothing has no profile and draws an empty
// graph, and one task is its own path.
func TestLabelsEmptyAndOneTask(t *testing.T) {
	rt := New(Config{})
	defer rt.Close()
	g := rt.CreateRegion("g", Line(0, 9), "v")
	if sum := rt.CriticalPath(g, 3); sum != nil {
		t.Errorf("CriticalPath before any launch = %+v, want nil", sum)
	}
	var dot bytes.Buffer
	if err := rt.WriteDOTCrit(g, &dot); err != nil || dot.String() != "digraph deps {\n  rankdir=TB; node [shape=box, fontsize=10];\n}\n" {
		t.Errorf("WriteDOTCrit before any launch = %q, %v", dot.String(), err)
	}

	rt.Launch(TaskSpec{Name: "only", Accesses: []Access{Write(g, "v")}})
	rt.Wait()
	checkLabels(t, rt, g)
	want := &CritSummary{Tasks: 1, Length: 11, Work: 11, Parallelism: 1,
		Path: []CritTask{{Task: 0, Name: "only", Weight: 11, Finish: 11}},
		Top:  []CritContributor{{Task: 0, Name: "only", Weight: 11, SharePct: 100}}}
	if got := rt.CriticalPath(g, 0); !reflect.DeepEqual(got, want) {
		t.Errorf("one task: CriticalPath = %+v, want %+v", got, want)
	}
}
