package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"visibility"
	"visibility/internal/index"
	"visibility/internal/obs"
	"visibility/internal/obs/recorder"
	"visibility/internal/server"
	"visibility/internal/server/client"
	"visibility/internal/wire"
)

// serveWorkload drives the Figure 1 graph simulation, scaled to a ring of
// points in equal pieces with an aliased ghost partition, through the
// service path: client → HTTP → server → wire.Env.Apply → Runtime → sched.
// Every tenant runs the same generated program on its own session.
type serveWorkload struct {
	id      string
	points  int
	pieces  int
	iters   int  // graphsim iterations per submitted batch
	explain bool // each step also asks Explain for its last task

	radius  int
	consts  [5]float64       // up offset, down offset, two reduce values, down scale
	stagger []time.Duration  // per-tenant delay before the steady loop
	decl    *wire.Workload   // region N with partitions P, reach, G; no tasks
	batch   *wire.Workload   // iters iterations of t1/t2 launches
	refs    map[int]snapshot // reference final contents by step count
}

// snapshot is the final contents of both fields, as the snapshot endpoint
// serves them.
type snapshot struct{ up, down [][]float64 }

func (w *serveWorkload) name() string { return w.id }

// drivers: one tenant goroutine per stagger entry drives a leg.
func (w *serveWorkload) drivers() int { return len(w.stagger) }

// generate derives everything the seed controls: the ghost radius, the
// kernel constants (dyadic, so sums stay exact) and the tenant stagger.
// The up field's write keeps scale 1, so every iteration changes every
// value and a lost or repeated batch shows in the final snapshot.
func (w *serveWorkload) generate(seed int64, tenants int) {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(w.points)))
	w.radius = 3 + rng.Intn(3)
	w.consts = [5]float64{
		float64(1+rng.Intn(8)) / 8, float64(1+rng.Intn(8)) / 8,
		float64(1+rng.Intn(8)) / 16, float64(1+rng.Intn(8)) / 16, 0.5,
	}
	w.stagger = make([]time.Duration, tenants)
	for i := range w.stagger {
		w.stagger[i] = time.Duration(rng.Intn(200)) * time.Microsecond
	}
	w.decl = &wire.Workload{
		Version: wire.Version,
		Name:    w.id,
		Regions: []wire.RegionDecl{{
			Name:   "N",
			Dim:    1,
			Space:  [][]int64{{0, int64(w.points) - 1}},
			Fields: []string{"up", "down"},
			Init: map[string]*wire.FuncSpec{
				"up": {Name: "coord", Args: map[string]float64{"axis": 0}},
			},
			Partitions: []wire.PartitionDecl{
				{Name: "P", Kind: "equal", Pieces: w.pieces},
				{Name: "reach", Kind: "image", Source: "P", Relation: &wire.FuncSpec{Name: "ring",
					Args: map[string]float64{"radius": float64(w.radius), "modulo": float64(w.points)}}},
				{Name: "G", Kind: "minus", Left: "reach", Right: "P"},
			},
		}},
	}
	affine := func(scale, offset float64) *wire.FuncSpec {
		return &wire.FuncSpec{Name: "affine", Args: map[string]float64{"scale": scale, "offset": offset}}
	}
	fill := func(v float64) *wire.FuncSpec {
		return &wire.FuncSpec{Name: "fill", Args: map[string]float64{"value": v}}
	}
	w.batch = &wire.Workload{Version: wire.Version, Name: w.id + "-batch"}
	for it := 0; it < w.iters; it++ {
		for _, phase := range []struct {
			name           string
			write, reduce  string
			kernel, contra *wire.FuncSpec
		}{
			{"t1", "up", "down", affine(1, w.consts[0]), fill(w.consts[2])},
			{"t2", "down", "up", affine(w.consts[4], w.consts[1]), fill(w.consts[3])},
		} {
			for i := 0; i < w.pieces; i++ {
				w.batch.Tasks = append(w.batch.Tasks, wire.TaskDecl{
					Name: phase.name,
					Accesses: []wire.AccessDecl{
						{Region: fmt.Sprintf("P[%d]", i), Field: phase.write, Privilege: "write", Kernel: phase.kernel},
						{Region: fmt.Sprintf("G[%d]", i), Field: phase.reduce, Privilege: "reduce", Op: "sum", Kernel: phase.contra},
					},
				})
			}
		}
	}
	w.refs = make(map[int]snapshot)
}

// rows reads region/field from an in-process runtime in the shape the
// snapshot endpoint serves: (coordinates..., value) per point.
func rows(rt *visibility.Runtime, reg *visibility.Region, field string) [][]float64 {
	var out [][]float64
	rt.Read(reg, field).Each(func(p visibility.Point, v float64) {
		out = append(out, []float64{float64(p.C[0]), v})
	})
	return out
}

// reference runs the program for steps steady steps (plus the set-up
// batch) on an in-process runtime in Validate mode, which checks every
// materialized input against the sequential interpreter, and returns the
// final contents. Results are cached per step count.
func (w *serveWorkload) reference(steps int) (snapshot, error) {
	if ref, ok := w.refs[steps]; ok {
		return ref, nil
	}
	rt := visibility.New(visibility.Config{Validate: true})
	defer rt.Close()
	env := wire.NewEnv(rt)
	if _, err := env.Apply(w.decl); err != nil {
		return snapshot{}, err
	}
	for s := 0; s <= steps; s++ {
		if _, err := env.Apply(w.batch); err != nil {
			return snapshot{}, err
		}
	}
	n := env.Region("N")
	ref := snapshot{up: rows(rt, n, "up"), down: rows(rt, n, "down")}
	w.refs[steps] = ref
	return ref, nil
}

// serveObserved is what a traced service leg reads back from the
// endpoints the server already exports, before its sessions close.
type serveObserved struct {
	queueWaitNs   []float64
	httpUs        map[string][]float64 // endpoint name → request latencies
	rejected      int64
	requests      int64
	snapshotBytes int
}

// tenantResult is one tenant's share of a leg.
type tenantResult struct {
	stepNs []float64
	err    error
	final  snapshot
}

// leg starts a fresh server, gives every tenant one session and one
// goroutine, sets each up (declaration, first batch, first snapshot), and
// then runs the closed loop: Submit, Snapshot (and Explain), timed from
// before Submit until the last read returns. Submit is a 202; the sync
// read waits FIFO behind it on the session worker, so the step latency is
// submit → result.
func (w *serveWorkload) leg(alg string, steps int, o legOpts) (res legResult) {
	tenants := len(w.stagger)
	start, meter := time.Now(), startSteal()
	cfg := server.Config{IdleTimeout: -1}
	if o.tr != nil {
		// Room for a whole leg's HTTP and queue-wait spans, so the
		// server-side percentiles cover more than the last few steps.
		cfg.SpanCap = 1 << 14
	}
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		res.fail(steps*tenants, err)
		return res
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			res.fail(0, err)
		}
		if err := hs.Shutdown(ctx); err != nil {
			res.fail(0, err)
		}
		<-served
	}()
	base := "http://" + ln.Addr().String()
	c := client.New(base)
	c.RetryWait = 5 * time.Millisecond

	out := make([]tenantResult, tenants)
	sessions := make([]*client.Session, tenants)
	tracers := make([]*tracer, tenants)
	var ready, finished sync.WaitGroup
	ready.Add(tenants)
	finished.Add(tenants)
	release := make(chan struct{})
	perStep := len(w.batch.Tasks)
	for i := 0; i < tenants; i++ {
		if o.tr != nil {
			tracers[i] = newTracer(o.tr.base)
		}
		go func(i int) {
			defer finished.Done()
			r, tr := &out[i], tracers[i]
			sess, err := c.CreateSession(client.SessionConfig{Algorithm: alg})
			if err == nil {
				sessions[i] = sess
				err = sess.Submit(w.decl)
			}
			next := 0 // id the session's next task will get
			step := func() error {
				tr.begin("client.submit")
				err := sess.Submit(w.batch)
				tr.end()
				if err != nil {
					return err
				}
				next += perStep
				last := next - 1
				tr.begin("client.snapshot")
				_, err = sess.Snapshot("N", "up")
				tr.end()
				if err != nil {
					return err
				}
				next++ // the read is an inline task
				if !w.explain {
					return nil
				}
				tr.begin("client.explain")
				ex, err := sess.Explain("N", last)
				tr.end()
				if err != nil {
					return err
				}
				if ex.Explain == nil || ex.Explain.Task != last || ex.Explain.Name != "t2" || len(ex.Explain.Edges) == 0 {
					return fmt.Errorf("explain(%d) returned %+v", last, ex.Explain)
				}
				return nil
			}
			if err == nil {
				err = step()
			}
			ready.Done()
			<-release
			if err != nil {
				r.err = err
				return
			}
			time.Sleep(w.stagger[i])
			r.stepNs = make([]float64, 0, steps)
			for k := 0; k < steps; k++ {
				t0 := time.Now()
				tr.beginStep(k)
				err := step()
				tr.end()
				if err != nil {
					r.err = err
					return
				}
				r.stepNs = append(r.stepNs, float64(time.Since(t0)))
			}
			if r.final.up, r.err = sess.Snapshot("N", "up"); r.err == nil {
				r.final.down, r.err = sess.Snapshot("N", "down")
			}
		}(i)
	}
	ready.Wait()
	res.setup = time.Since(start)
	var allocs obs.AllocSnapshot
	if o.tr != nil {
		allocs = obs.ReadAllocs()
	}
	steadyStart := time.Now()
	close(release)
	finished.Wait()
	res.steady = time.Since(steadyStart)
	res.stolen = meter.share()
	if o.tr != nil {
		res.mallocs, res.bytes = obs.ReadAllocs().Since(allocs)
		for _, tr := range tracers {
			o.tr.merge(tr)
		}
		res.threads = tracers
		if res.served, err = observe(c, base, sessions[0]); err != nil {
			res.fail(0, fmt.Errorf("%s/%s: reading the server's exports: %w", w.id, alg, err))
		}
	}
	for _, sess := range sessions {
		if sess == nil {
			continue
		}
		if err := sess.Close(); err != nil {
			res.fail(0, err)
		}
	}

	want, err := w.reference(steps)
	if err != nil {
		res.fail(steps*tenants, fmt.Errorf("%s: reference run: %w", w.id, err))
		return res
	}
	if o.inject == "snapshot" {
		want.up = append([][]float64{{want.up[0][0], want.up[0][1] + 1}}, want.up[1:]...)
	}
	for i := range out {
		r := &out[i]
		if r.err == nil && !(equalRows(r.final.up, want.up) && equalRows(r.final.down, want.down)) {
			r.err = fmt.Errorf("%s/%s: tenant %d final snapshot differs from the Validate-mode reference", w.id, alg, i)
		}
		if r.err != nil {
			// A tenant that errored or ended on wrong contents
			// contributes no samples: all its steps count as failed.
			res.fail(steps, r.err)
			continue
		}
		res.stepNs = append(res.stepNs, r.stepNs...)
		res.launches += steps * perStep
	}
	res.allLaunches = res.launches + tenants*perStep
	return res
}

// observe reads the server's own exports after a traced leg: the merged
// trace (HTTP request spans and each session's queue.wait spans, exact
// durations), the admission counters from /metrics, and the size of one
// snapshot response.
func observe(c *client.Client, base string, sess *client.Session) (*serveObserved, error) {
	seen := &serveObserved{httpUs: make(map[string][]float64)}
	raw, err := c.DebugTrace()
	if err != nil {
		return seen, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"` // µs
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return seen, fmt.Errorf("/debug/trace: %w", err)
	}
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph != "X":
		case ev.Name == "queue.wait":
			seen.queueWaitNs = append(seen.queueWaitNs, ev.Dur*1e3)
		case strings.HasPrefix(ev.Name, "http."):
			name := strings.TrimPrefix(ev.Name, "http.")
			seen.httpUs[name] = append(seen.httpUs[name], ev.Dur)
		}
	}
	m, err := c.Metrics()
	if err != nil {
		return seen, err
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(m["server"], &snap); err != nil {
		return seen, fmt.Errorf("/metrics: %w", err)
	}
	seen.rejected = snap["server/admission/rejected"]
	for _, ep := range []string{"workloads", "snapshot", "explain"} {
		seen.requests += snap["server/http/"+ep+"/requests"]
	}
	if sess == nil {
		return seen, nil
	}
	resp, err := http.Get(base + "/v1/sessions/" + sess.ID + "/snapshot?region=N&field=up")
	if err != nil {
		return seen, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	seen.snapshotBytes = len(body)
	return seen, err
}

// replicaResult is one in-process replica leg: the same steps as the HTTP
// leg without the server or the client, so the difference between the two
// is the serving layer.
type replicaResult struct {
	steady     time.Duration
	launches   int
	stepNs     []float64
	batchBytes int
	analyzeNs  []float64 // the runtime's own <alg>.analyze spans
	ops, deps  int64
	mallocs    int64
}

// replica replays a tenant's steps against wire and the Runtime directly,
// with the session's configuration (provenance, recorder, spans, metrics
// on): encode the batch as the client does, decode and validate it as the
// handler does, apply it, read and JSON-encode the snapshot as the
// snapshot handler does.
func (w *serveWorkload) replica(alg string, steps int, tr *tracer) (replicaResult, error) {
	var r replicaResult
	perStep := len(w.batch.Tasks)
	spans := obs.NewBuffer((steps+1)*perStep*8 + 1024)
	rt := visibility.New(visibility.Config{
		Algorithm: alg, Metrics: obs.NewRegistry(), Spans: spans,
		Recorder: recorder.New(16384), Provenance: true,
	})
	defer rt.Close()
	env := wire.NewEnv(rt)
	if _, err := env.Apply(w.decl); err != nil {
		return r, err
	}
	n := env.Region("N")
	next := 0
	step := func() error {
		tr.begin("wire.encode")
		var buf bytes.Buffer
		err := wire.Encode(&buf, w.batch)
		tr.end()
		if err != nil {
			return err
		}
		r.batchBytes = buf.Len()
		tr.begin("wire.decode")
		wl, err := wire.Decode(&buf)
		tr.end()
		if err != nil {
			return err
		}
		tr.begin("wire.apply")
		_, err = env.Apply(wl)
		tr.end()
		if err != nil {
			return err
		}
		next += perStep
		tr.begin("runtime.read")
		pts := rows(rt, n, "up")
		tr.end()
		next++
		tr.begin("json.encode")
		_, err = json.MarshalIndent(map[string]any{"region": "N", "field": "up", "points": pts}, "", "  ")
		tr.end()
		if err != nil || !w.explain {
			return err
		}
		tr.begin("runtime.explain")
		ex := rt.Explain(n, next-2)
		tr.end()
		tr.begin("json.encode")
		_, err = json.MarshalIndent(map[string]any{"region": "N", "explain": ex}, "", "  ")
		tr.end()
		return err
	}
	if err := step(); err != nil {
		return r, err
	}
	before := rt.Stats(n)
	setupSpans := spans.Len()
	allocs := obs.ReadAllocs()
	start, meter := time.Now(), startSteal()
	for k := 0; k < steps; k++ {
		t0 := time.Now()
		tr.beginStep(k)
		err := step()
		tr.end()
		if err != nil {
			return r, err
		}
		r.stepNs = append(r.stepNs, float64(time.Since(t0)))
	}
	ran := meter.ran()
	r.steady = time.Duration(float64(time.Since(start)) * ran)
	r.mallocs, _ = obs.ReadAllocs().Since(allocs)
	r.launches = steps * perStep
	after := rt.Stats(n)
	r.ops = after.Ops() - before.Ops()
	r.deps = after.DepsReported - before.DepsReported
	for _, s := range spans.Snapshot()[setupSpans:] {
		if s.Name == alg+".analyze" {
			r.analyzeNs = append(r.analyzeNs, float64(s.End-s.Start))
		}
	}
	scaleAll(ran, r.stepNs, r.analyzeNs)
	tr.scale(ran)
	return r, nil
}

// spaces returns the program's region tree, one group of piece spaces per
// partition, declared on a scratch runtime.
func (w *serveWorkload) spaces() [][]index.Space {
	rt := visibility.New(visibility.Config{})
	defer rt.Close()
	env := wire.NewEnv(rt)
	if _, err := env.Apply(w.decl); err != nil {
		panic(err) // the declaration is generated; it cannot be invalid
	}
	var out [][]index.Space
	for _, p := range env.Region("N").Partitions() {
		var group []index.Space
		for i := 0; i < p.Len(); i++ {
			group = append(group, p.Sub(i).Space())
		}
		out = append(out, group)
	}
	return out
}
