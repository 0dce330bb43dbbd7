package data_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"visibility/internal/core"
	"visibility/internal/data"
	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/index"
	"visibility/internal/privilege"
	"visibility/internal/region"
)

// The blending function B of §3.1 folds a time-ordered sequence of
// writes, reductions and reads over a value. core.Seq, the interpreter
// every oracle runs, is its one encoding; these tests hold it to B on a
// single point.

// constKernel writes, and reduces by, its own value.
type constKernel float64

func (k constKernel) WriteValue(*core.Task, int, geometry.Point, float64) float64 { return float64(k) }
func (k constKernel) ReduceValue(*core.Task, int, geometry.Point) float64         { return float64(k) }

// op is one §3.1 operation on a single element: a write w_x, a reduction
// f_x or a read r.
type op struct {
	priv privilege.Privilege
	x    float64
}

func writeOp(x float64) op                        { return op{privilege.Writes(), x} }
func reduceOp(f privilege.ReduceOp, x float64) op { return op{privilege.Reduces(f), x} }
func readOp() op                                  { return op{priv: privilege.Reads()} }

// blend runs ops in program order through Seq, each as a task on a
// one-point region that holds v0 at first, and returns the blended value
// B(ops, v0) and what each read observed.
func blend(ops []op, v0 float64) (final float64, reads []float64) {
	fs := field.NewSpace()
	fs.Add("a")
	tree := region.NewTree("R", index.FromRect(geometry.R1(0, 0)), fs)
	init := data.NewStore(tree.Root.Space)
	init.Set(geometry.Pt1(0), v0)
	seq := core.NewSeq(tree, map[field.ID]*data.Store{0: init})
	s := core.NewStream(tree)
	for _, o := range ops {
		task := s.Launch("op", core.Req{Region: tree.Root, Field: 0, Priv: o.priv})
		inputs := seq.Run(task, constKernel(o.x))
		if o.priv.IsRead() {
			reads = append(reads, inputs[0].MustGet(geometry.Pt1(0)))
		}
	}
	return seq.Global(0).MustGet(geometry.Pt1(0)), reads
}

// TestBlendPaperSemantics runs §3.1's example: writes are opaque,
// reductions blend, reads are transparent.
func TestBlendPaperSemantics(t *testing.T) {
	ops := []op{writeOp(10), reduceOp(privilege.OpSum, 5), readOp(), reduceOp(privilege.OpSum, 2)}
	got, reads := blend(ops, 0)
	if got != 17 || len(reads) != 1 || reads[0] != 15 {
		t.Errorf("blend = %v, reads %v; want 17, a read of 15", got, reads)
	}
	// A later write occludes everything before it.
	if got, _ := blend(append(ops, writeOp(100)), 0); got != 100 {
		t.Errorf("blend after write = %v, want 100", got)
	}
}

func TestBlendMinMax(t *testing.T) {
	ops := []op{writeOp(10), reduceOp(privilege.OpMin, 3), reduceOp(privilege.OpMax, 7)}
	if got, _ := blend(ops, 0); got != 7 {
		t.Errorf("blend = %v, want 7", got)
	}
	if got, _ := blend(ops[:2], 0); got != 3 {
		t.Errorf("blend = %v, want 3", got)
	}
}

// Property: a write anywhere in the sequence makes the prefix irrelevant.
func TestBlendWriteOcclusionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		var ops []op
		for i, n := 0, rng.Intn(8); i < n; i++ {
			switch rng.Intn(3) {
			case 0:
				ops = append(ops, writeOp(rng.Float64()))
			case 1:
				ops = append(ops, reduceOp(privilege.OpSum, rng.Float64()))
			default:
				ops = append(ops, readOp())
			}
		}
		occl := []op{writeOp(rng.Float64())}
		for i, n := 0, rng.Intn(4); i < n; i++ {
			occl = append(occl, reduceOp(privilege.OpSum, rng.Float64()))
		}
		full, _ := blend(append(ops, occl...), 123)
		want, _ := blend(occl, 456)
		return full == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: reads never change the blended value.
func TestBlendReadTransparencyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func() bool {
		var ops, withReads []op
		for i, n := 0, rng.Intn(8); i < n; i++ {
			o := reduceOp(privilege.OpSum, rng.Float64())
			if rng.Intn(2) == 0 {
				o = writeOp(rng.Float64())
			}
			ops, withReads = append(ops, o), append(withReads, o, readOp())
		}
		got, _ := blend(ops, 1)
		want, _ := blend(withReads, 1)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
