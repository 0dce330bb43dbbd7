package harness

import (
	"bytes"
	"fmt"
	"math/rand"

	"visibility/internal/algo"
	"visibility/internal/autotrace"
	"visibility/internal/core"
	"visibility/internal/data"
	"visibility/internal/fault"
	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/index"
	"visibility/internal/obs/recorder"
	"visibility/internal/privilege"
	"visibility/internal/region"
)

// ChaosConfig selects one chaos run: a workload seed, a fault plan, and
// the workload size. The workload seed and the plan's own seed are
// independent axes — the same task stream can be searched under many
// fault schedules and vice versa.
type ChaosConfig struct {
	// Seed drives the random region tree and task stream.
	Seed int64
	// Plan is the fault plan string (fault.Parse grammar). Empty selects
	// DefaultChaosPlan(Seed).
	Plan string
	// Tasks is the stream length (default 24).
	Tasks int
}

// ChaosReport is the outcome of one chaos run. Everything in it is a
// deterministic function of the config: replaying the same config yields
// a byte-identical Dump, which is what makes a failing seed's plan string
// a complete reproduction recipe.
type ChaosReport struct {
	Seed      int64
	Plan      string
	Tasks     int
	Analyzers []string
	// Fires counts injected faults per site — the plan's schedule exactly
	// as written, and one KindFaultInject event in Dump per fire.
	Fires map[fault.Site]int64
	// Events is the number of flight-recorder events journaled.
	Events int
	// Dump is the recorder window in VISFREC1 binary form, journaled on a
	// deterministic event-count clock.
	Dump []byte
	// AutoTrace summarizes the autotrace leg: a periodic stream driven
	// unbracketed through an autotraced analyzer under the same fault
	// plan, so trace.invalidate fires mid-replay and recovery is
	// value-checked against the sequential ground truth.
	AutoTrace autotrace.Stats
}

// DefaultChaosPlan is the mixed fault plan chaos runs use when none is
// given: the three sites a chaos run reaches (forced split, forced
// migration, forced trace invalidation) armed at low probability, seeded
// so distinct seeds explore distinct fault schedules. The worker-panic
// site lives in the server, which a chaos run does not drive.
func DefaultChaosPlan(seed int64) string {
	p := fault.Plan{Seed: seed, Rules: map[fault.Site]fault.Rule{
		fault.EqSplit:         {Prob: 0.10},
		fault.EqMigrate:       {Prob: 0.05},
		fault.TraceInvalidate: {Prob: 0.10},
	}}
	return p.String()
}

// RunChaos runs one randomized task stream through all four analyzers
// under an active fault plan, cross-checking every materialized value and
// dependence against the sequential ground truth (core.Verify), then
// drives a periodic stream through an autotraced analyzer under the same
// plan. The report is returned even when verification fails, so a failing
// seed still yields its recorder dump for replay.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	if cfg.Tasks <= 0 {
		cfg.Tasks = 24
	}
	if cfg.Plan == "" {
		cfg.Plan = DefaultChaosPlan(cfg.Seed)
	}
	inj, err := fault.NewFromString(cfg.Plan)
	if err != nil {
		return nil, err
	}
	// The recorder clock counts events rather than reading wall time, so
	// identical runs journal identical timestamps and the dump is
	// byte-reproducible.
	var ticks int64
	rec := recorder.NewClock(1<<16, func() int64 { ticks++; return ticks })
	inj.SetRecorder(rec)

	rng := rand.New(rand.NewSource(cfg.Seed))
	tree := chaosTree(rng)
	stream := chaosStream(rng, tree, cfg.Tasks)

	report := &ChaosReport{Seed: cfg.Seed, Plan: cfg.Plan, Tasks: len(stream.Tasks), Analyzers: algo.Names()}
	finish := func() {
		report.Fires = inj.Counts()
		report.Events = rec.Len()
		var buf bytes.Buffer
		_ = rec.Dump(&buf) // bytes.Buffer writes cannot fail
		report.Dump = buf.Bytes()
	}

	opts := core.Options{Faults: inj, Recorder: rec}
	var factories []core.Factory
	for _, name := range algo.Names() {
		newAn, _ := algo.Lookup(name)
		factories = append(factories, core.Factory{Name: name, New: func(tr *region.Tree) core.Analyzer { return newAn(tr, opts) }})
	}
	if err := core.Verify(stream, chaosInit(tree), core.HashKernel{}, factories...); err != nil {
		finish()
		return report, fmt.Errorf("chaos seed %d plan %q: %w", cfg.Seed, cfg.Plan, err)
	}

	// Autotrace leg: the random stream above never repeats, so traces
	// cannot form there. A separate periodic stream — one random body
	// repeated verbatim — is driven unbracketed through an autotraced
	// analyzer under the same injector, so an armed trace.invalidate site
	// fires mid-replay and every recovered value is still checked against
	// the sequential ground truth.
	loop := chaosLoopStream(rng, tree, 10)
	var auto *algo.Stack
	autoFac := core.Factory{Name: "raycast+autotrace", New: func(tr *region.Tree) core.Analyzer {
		auto = algo.Spec{Algorithm: "raycast", AutoTrace: true}.Build(tr, opts)
		return auto.Analyzer
	}}
	if err := core.Verify(loop, chaosInit(tree), core.HashKernel{}, autoFac); err != nil {
		finish()
		return report, fmt.Errorf("chaos seed %d plan %q (autotrace leg): %w", cfg.Seed, cfg.Plan, err)
	}
	report.AutoTrace = auto.Auto.AutoStats()

	finish()
	return report, nil
}

// ChaosTree exposes the chaos tree generator: a random region tree over
// a 1-D or 2-D root with a mix of disjoint and aliased partitions,
// possibly nested. Property suites (e.g. the crosscheck random streams)
// reuse it so their workload family matches the chaos harness's.
func ChaosTree(rng *rand.Rand) *region.Tree { return chaosTree(rng) }

// ChaosStream exposes the chaos stream generator: n random launches over
// random regions of tree with random privileges, honoring the §4
// same-task disjointness restriction.
func ChaosStream(rng *rand.Rand, tree *region.Tree, n int) *core.Stream {
	return chaosStream(rng, tree, n)
}

// ChaosInit exposes the chaos initial contents: a deterministic non-zero
// per-point value for every field.
func ChaosInit(tree *region.Tree) map[field.ID]*data.Store { return chaosInit(tree) }

// chaosInit fills every field with a deterministic per-point value, so
// coherence errors cannot hide behind zero contents.
func chaosInit(tree *region.Tree) map[field.ID]*data.Store {
	init := make(map[field.ID]*data.Store)
	for f := 0; f < tree.Fields.Len(); f++ {
		st := data.NewStore(tree.Root.Space)
		fv := float64(int64(f+1) * 1000)
		st.Fill(func(p geometry.Point) float64 { return fv + float64(p.C[0]) + 2*float64(p.C[1]) })
		init[field.ID(f)] = st
	}
	return init
}

// chaosTree builds a random region tree over a 1-D or 2-D root with a mix
// of disjoint and aliased partitions, possibly nested — the same shape
// family the crosscheck suite searches, regenerated here so non-test code
// (visbench -chaos) can drive it.
func chaosTree(rng *rand.Rand) *region.Tree {
	fs := field.NewSpace()
	fs.Add("f0")
	fs.Add("f1")
	var root index.Space
	dim := 1 + rng.Intn(2)
	if dim == 1 {
		root = index.FromRect(geometry.R1(0, 23))
	} else {
		root = index.FromRect(geometry.R2(0, 0, 5, 3))
	}
	tree := region.NewTree("A", root, fs)

	nparts := 1 + rng.Intn(3)
	for pi := 0; pi < nparts; pi++ {
		npieces := 2 + rng.Intn(3)
		pieces := make([]index.Space, npieces)
		for i := range pieces {
			b := root.Bounds()
			r := geometry.Rect{Dim: dim}
			for a := 0; a < dim; a++ {
				span := b.Hi.C[a] - b.Lo.C[a] + 1
				lo := b.Lo.C[a] + rng.Int63n(span)
				hi := lo + rng.Int63n(span-(lo-b.Lo.C[a]))
				r.Lo.C[a], r.Hi.C[a] = lo, hi
			}
			pieces[i] = index.FromRect(r).Intersect(root)
		}
		p := tree.Root.Partition("Q", pieces)
		if rng.Intn(3) == 0 && len(p.Subregions) > 0 {
			sub := p.Subregions[rng.Intn(len(p.Subregions))]
			if !sub.Space.IsEmpty() && sub.Space.Volume() > 1 {
				a, b := sub.Space.SplitAt(sub.Space.Volume() / 2)
				sub.Partition("nested", []index.Space{a, b})
			}
		}
	}
	return tree
}

// chaosStream launches a random sequence of tasks over random regions of
// the tree with random privileges, honoring the §4 restriction that one
// task's requirements be disjoint unless both read or both reduce with
// the same operator.
func chaosStream(rng *rand.Rand, tree *region.Tree, n int) *core.Stream {
	var regions []*region.Region
	for i := 0; i < tree.NumRegions(); i++ {
		r := tree.Region(i)
		if !r.Space.IsEmpty() {
			regions = append(regions, r)
		}
	}
	ops := []privilege.ReduceOp{privilege.OpSum, privilege.OpMin, privilege.OpMax, privilege.OpProd}
	s := core.NewStream(tree)
	for i := 0; i < n; i++ {
		nreq := 1
		if rng.Intn(4) == 0 {
			nreq = 2
		}
		var reqs []core.Req
		for ri := 0; ri < nreq; ri++ {
			r := regions[rng.Intn(len(regions))]
			f := field.ID(rng.Intn(tree.Fields.Len()))
			var priv privilege.Privilege
			switch rng.Intn(4) {
			case 0:
				priv = privilege.Reads()
			case 1, 2:
				priv = privilege.Writes()
			default:
				priv = privilege.Reduces(ops[rng.Intn(len(ops))])
			}
			ok := true
			for _, prev := range reqs {
				if prev.Field == f && privilege.Interferes(prev.Priv, priv) && prev.Region.Space.Overlaps(r.Space) {
					ok = false
					break
				}
			}
			if ok {
				reqs = append(reqs, core.Req{Region: r, Field: f, Priv: priv})
			}
		}
		if len(reqs) > 0 {
			s.Launch("rand", reqs...)
		}
	}
	return s
}

// chaosLoopStream builds the periodic stream the autotrace leg drives: a
// random body of launches repeated verbatim for iters iterations. The
// body opens with a whole-root write of every field so every later read
// sources from a producer at most one period back — the shape family the
// tracer's replayable() check accepts, which is what lets the armed
// trace.invalidate site actually reach a mid-replay state.
func chaosLoopStream(rng *rand.Rand, tree *region.Tree, iters int) *core.Stream {
	var regions []*region.Region
	for i := 0; i < tree.NumRegions(); i++ {
		r := tree.Region(i)
		if !r.Space.IsEmpty() {
			regions = append(regions, r)
		}
	}
	type launch struct {
		name string
		reqs []core.Req
	}
	head := launch{name: "loop_head"}
	for f := 0; f < tree.Fields.Len(); f++ {
		head.reqs = append(head.reqs, core.Req{Region: tree.Root, Field: field.ID(f), Priv: privilege.Writes()})
	}
	body := []launch{head}
	for i, n := 0, 2+rng.Intn(3); i < n; i++ {
		r := regions[rng.Intn(len(regions))]
		f := field.ID(rng.Intn(tree.Fields.Len()))
		priv := privilege.Writes()
		if rng.Intn(2) == 0 {
			priv = privilege.Reads()
		}
		body = append(body, launch{name: fmt.Sprintf("loop_%d", i), reqs: []core.Req{{Region: r, Field: f, Priv: priv}}})
	}
	s := core.NewStream(tree)
	for it := 0; it < iters; it++ {
		for _, l := range body {
			s.Launch(l.name, l.reqs...)
		}
	}
	return s
}
