package core

import (
	"fmt"

	"visibility/internal/data"
	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/index"
	"visibility/internal/privilege"
	"visibility/internal/region"
)

// Factory constructs a fresh analyzer for a tree. Verification runs each
// factory's analyzer over the same stream and cross-checks the results.
type Factory struct {
	Name string
	New  func(tree *region.Tree) Analyzer
}

// Verify runs the stream through the sequential ground-truth interpreter
// and, per factory, through an Executor over the Checked analyzer,
// drained per launch, checking for each analyzer that:
//
//  1. every read and read-write requirement materializes exactly the values
//     the sequential interpreter observed (coherence, §3.1);
//  2. the reported dependences preserve, at least transitively, every exact
//     interference (soundness of dependence analysis, §3.2);
//  3. a final read of the entire root region per field materializes the
//     sequential interpreter's final contents.
//
// Returns nil if all analyzers pass, or an error naming the factory and
// the first failure — a plan violation or a panic in the analysis included.
func Verify(stream *Stream, init map[field.ID]*data.Store, k Kernel, factories ...Factory) error {
	tree := stream.Tree

	// Extend the stream with one root-wide read per field so the final
	// contents are themselves checked through each analyzer.
	extended := NewStream(tree)
	extended.Tasks = append(extended.Tasks, stream.Tasks...)
	var finals []*Task
	for f := 0; f < tree.Fields.Len(); f++ {
		ft := extended.Launch(fmt.Sprintf("final-read-%s", tree.Fields.Name(field.ID(f))),
			Req{Region: tree.Root, Field: field.ID(f), Priv: privilege.Reads()})
		finals = append(finals, ft)
	}

	seq := NewSeq(init)
	wants := make([][]*data.Store, len(extended.Tasks))
	for _, t := range extended.Tasks {
		wants[t.ID] = seq.Run(t, k)
	}
	exact := ExactDeps(extended.Tasks)

	for _, fac := range factories {
		got, inputs, err := execute(fac.New(tree), init, extended.Tasks, k)
		if err != nil {
			return fmt.Errorf("%s: %w", fac.Name, err)
		}

		// 1. Coherence of every materialized input.
		for _, t := range extended.Tasks {
			want := wants[t.ID]
			have := inputs[t.ID]
			for ri, req := range t.Reqs {
				if req.Priv.IsReduce() {
					continue
				}
				if !want[ri].Equal(have[ri]) {
					return fmt.Errorf("%s: task %v req %d (%v) materialized wrong values:\n%s",
						fac.Name, t, ri, req, want[ri].Diff(have[ri]))
				}
			}
		}

		// 2. Soundness of dependences.
		if err := CheckSound(got, exact); err != nil {
			return fmt.Errorf("%s: %w", fac.Name, err)
		}

		// 3. Final contents (redundant with 1 via the appended reads, but
		// stated explicitly against the global store).
		for i, ft := range finals {
			want := seq.Global(field.ID(i)).Restrict(tree.Root.Space)
			have := inputs[ft.ID][0]
			if !want.Equal(have) {
				return fmt.Errorf("%s: final contents of field %d wrong:\n%s",
					fac.Name, i, want.Diff(have))
			}
		}
	}
	return nil
}

// execute runs tasks (IDs 0..len-1, in order) through an Executor over
// Checked(an), draining after every launch so that one task at a time is
// in flight and a dropped dependence surfaces as CheckSound's
// deterministic error rather than as a race. It returns each task's
// dependence row — the analyzer's dependences plus its future edges,
// which the runtime enforces itself — and its materialized inputs. A
// plan violation or an analysis panic, both raised on this goroutine,
// comes back as the error.
func execute(an Analyzer, init map[field.ID]*data.Store, tasks []*Task, k Kernel) (deps [][]int, inputs [][]*data.Store, err error) {
	x := NewExecutor(Checked(an), init, nil)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	inputs = make([][]*data.Store, len(tasks))
	for _, t := range tasks {
		_, row := x.Submit(t, k, func(in []*data.Store) { inputs[t.ID] = in })
		x.Drain()
		deps = append(deps, row)
	}
	return deps, inputs, nil
}

// Checked wraps an so that every materialization plan it returns is
// checked on the submitting goroutine, before an executor materializes
// it, against the tasks the wrapper has seen: each entry lies within the
// requested points and is a write or a reduction; a producer other than
// InitialTask is a prior task whose named requirement exists, mutates the
// same field, and covers the entry's points; and the write entries cover
// the requested points. A violation panics at the launch that caused it,
// rather than surfacing as wrong values downstream.
func Checked(an Analyzer) Analyzer {
	return &checked{Analyzer: an, seen: make(map[int]*Task)}
}

type checked struct {
	Analyzer
	seen map[int]*Task // every task analyzed so far, by ID
}

func (c *checked) Analyze(t *Task) *Result {
	res := c.Analyzer.Analyze(t)
	if len(res.Plans) == len(t.Reqs) { // a miscount is the executor's to report
		for ri, req := range t.Reqs {
			if !req.Priv.IsReduce() {
				c.check(t, ri, req, res.Plans[ri])
			}
		}
	}
	c.seen[t.ID] = t
	return res
}

func (c *checked) check(t *Task, ri int, req Req, plan []Visible) {
	fail := func(format string, args ...any) {
		panic(fmt.Sprintf("core: %s plan for %v req %d ", c.Name(), t, ri) + fmt.Sprintf(format, args...))
	}
	covered := index.Empty(req.Region.Space.Dim())
	for vi, v := range plan {
		switch {
		case !req.Region.Space.Covers(v.Pts):
			fail("entry %d escapes the requested points: %v ⊄ %v", vi, v.Pts, req.Region.Space)
		case v.Priv.IsRead():
			fail("entry %d has read privilege", vi)
		case v.Task == InitialTask:
		case v.Task < 0 || v.Task >= t.ID:
			fail("references non-prior task %d", v.Task)
		default:
			p := c.seen[v.Task]
			if p == nil || v.Req < 0 || v.Req >= len(p.Reqs) {
				fail("references %d.%d, which the stream does not have", v.Task, v.Req)
			}
			switch pr := p.Reqs[v.Req]; {
			case !pr.Priv.Mutates():
				fail("references %d.%d, which does not mutate (%v)", v.Task, v.Req, pr.Priv)
			case pr.Field != req.Field:
				fail("references %d.%d on field %d, not %d", v.Task, v.Req, pr.Field, req.Field)
			case !pr.Region.Space.Covers(v.Pts):
				fail("entry %d reaches beyond producer %d.%d's points: %v ⊄ %v", vi, v.Task, v.Req, v.Pts, pr.Region.Space)
			}
		}
		if v.Priv.IsWrite() {
			covered = covered.Union(v.Pts)
		}
	}
	// Every requested point must be reachable from some write (possibly
	// the initial contents); reductions alone cannot define a value.
	if !covered.Covers(req.Region.Space) {
		fail("leaves holes: %v not covered by writes", req.Region.Space.Subtract(covered))
	}
}

// HashKernel is a deterministic pseudo-random kernel for tests: every
// written value and reduction contribution is a pure function of the task
// ID, requirement index, point, and the materialized input (for writes), so
// any coherence error changes downstream values and is detected.
type HashKernel struct{}

func mix(h uint64, x uint64) uint64 {
	h ^= x
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	return h
}

func (HashKernel) hash(t *Task, ri int, px, py, pz int64) float64 {
	h := mix(mix(mix(mix(uint64(0x12345678), uint64(t.ID)+1), uint64(ri)+1),
		uint64(px)+0x55), mix(uint64(py)+0xAA, uint64(pz)+0x33))
	// Map to a smallish integer so float arithmetic is exact and
	// order-independent errors cannot cancel by rounding.
	return float64(h % 1024)
}

// WriteValue implements Kernel.
func (k HashKernel) WriteValue(t *Task, ri int, p geometry.Point, in float64) float64 {
	return k.hash(t, ri, p.C[0], p.C[1], p.C[2]) + in/2048
}

// ReduceValue implements Kernel.
func (k HashKernel) ReduceValue(t *Task, ri int, p geometry.Point) float64 {
	return k.hash(t, ri, p.C[0], p.C[1], p.C[2])
}
