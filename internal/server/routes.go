package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"time"

	"visibility"
	"visibility/internal/obs"
	"visibility/internal/obs/recorder"
	"visibility/internal/wire"
)

// latencyBounds are the per-endpoint latency histogram buckets, in
// microseconds.
var latencyBounds = []int64{100, 1_000, 10_000, 100_000, 1_000_000}

// traceKey carries the request's span context through context.Context.
type traceKey struct{}

// traceContext returns the trace context of the HTTP span covering r
// (zero when the request bypassed the instrumented mux).
func traceContext(r *http.Request) obs.TraceContext {
	tc, _ := r.Context().Value(traceKey{}).(obs.TraceContext)
	return tc
}

// routes mounts every endpoint, each wrapped with request counting, a
// latency histogram under "server/http/<name>/", and an "http.<name>"
// span on the server buffer. The span joins the trace in the request's
// W3C traceparent header when present (so client and server spans share
// a trace ID) and starts a fresh trace otherwise; handlers propagate it
// to worker jobs via the request context.
func (srv *Server) routes() {
	handle := func(pattern, name string, h http.HandlerFunc) {
		requests := srv.metrics.NewCounter("server/http/" + name + "/requests")
		latency := srv.metrics.NewHistogram("server/http/"+name+"/latency_us", latencyBounds...)
		srv.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			requests.Inc()
			parent, _ := obs.ParseTraceparent(r.Header.Get("traceparent"))
			sp, tc := srv.spans.BeginSpan("http."+name, "http", parent)
			h(w, r.WithContext(context.WithValue(r.Context(), traceKey{}, tc)))
			sp.End()
			latency.Observe(time.Since(start).Microseconds())
		})
	}
	handle("POST /v1/sessions", "sessions_create", srv.handleCreateSession)
	handle("GET /v1/sessions", "sessions_list", srv.handleListSessions)
	handle("POST /v1/sessions/restore", "sessions_restore", srv.handleRestore)
	handle("DELETE /v1/sessions/{id}", "sessions_delete", srv.handleDeleteSession)
	handle("POST /v1/sessions/{id}/workloads", "workloads", srv.handleWorkloads)
	handle("GET /v1/sessions/{id}/snapshot", "snapshot", srv.handleSnapshot)
	handle("GET /v1/sessions/{id}/graph", "graph", srv.handleGraph)
	handle("GET /v1/sessions/{id}/explain", "explain", srv.handleExplain)
	handle("GET /v1/sessions/{id}/critpath", "critpath", srv.handleCritPath)
	handle("GET /v1/sessions/{id}/dot", "dot", srv.handleDOT)
	handle("GET /v1/sessions/{id}/checkpoint", "checkpoint", srv.handleCheckpoint)
	handle("GET /v1/sessions/{id}/metrics", "session_metrics", srv.handleSessionMetrics)
	handle("GET /v1/sessions/{id}/spans", "session_spans", srv.handleSessionSpans)
	handle("GET /metrics", "metrics", srv.handleMetrics)
	handle("GET /debug/spans", "debug_spans", srv.handleDebugSpans)
	handle("GET /debug/trace", "debug_trace", srv.handleDebugTrace)
	handle("GET /debug/recorder", "debug_recorder", srv.handleDebugRecorder)
	handle("GET /debug/critpath", "debug_critpath", srv.handleDebugCritPath)
	handle("GET /healthz", "healthz", srv.handleHealthz)
	if srv.cfg.EnablePprof {
		// Raw mounts: profiling endpoints stay out of the metrics/tracing
		// wrapper so profiling the server does not perturb its own spans.
		srv.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		srv.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		srv.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		srv.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		srv.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// --- response plumbing --------------------------------------------------

// writeJSON writes v as one compact line. It marshals before it commits to
// the status, so a body that cannot be rendered is a 500, not an empty 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(v); err != nil {
		status = http.StatusInternalServerError
		body.Reset()
		_ = json.NewEncoder(&body).Encode(errorBody{Error: err.Error()}) // a string always encodes
	}
	writeRaw(w, status, "application/json", body.Bytes(), nil)
}

type errorBody struct {
	Error string `json:"error"`
}

// Request-body limits: a session description is a few fields; a workload or
// a checkpoint carries a whole batch or a whole session.
const (
	maxSessionBody  = 1 << 20
	maxWorkloadBody = 64 << 20
)

// fail maps service errors to HTTP statuses: overload is 429 with
// Retry-After (the backpressure contract), draining is 503, a closing
// session conflicts, a body over its limit is 413, anything else is the
// caller's fault.
func (srv *Server) fail(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	switch err {
	case errOverload, errSessionBusy, errTooManySessions:
		w.Header().Set("Retry-After", "1")
		status = http.StatusTooManyRequests
	case errDraining:
		w.Header().Set("Retry-After", "5")
		status = http.StatusServiceUnavailable
	case errSessionClosing:
		status = http.StatusConflict
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// eventBody is one flight-recorder event on the wire.
type eventBody struct {
	T    int64  `json:"t_ns"`
	Kind string `json:"kind"`
	A    int64  `json:"a"`
	B    int64  `json:"b"`
}

// recorderTail returns the newest n journaled events, oldest first.
func (srv *Server) recorderTail(n int) []eventBody {
	events := srv.rec.Snapshot()
	if len(events) > n {
		events = events[len(events)-n:]
	}
	out := make([]eventBody, len(events))
	for i, e := range events {
		out[i] = eventBody{T: e.T, Kind: e.Kind.String(), A: e.A, B: e.B}
	}
	return out
}

// failConflict writes the 409 for a failed session, attaching the flight
// recorder's recent window (and the on-disk dump path, when one was
// written) so the client sees what the runtime was doing when it died.
func (srv *Server) failConflict(w http.ResponseWriter, s *session, err error) {
	body := map[string]any{
		"error":    "session failed: " + err.Error(),
		"recorder": srv.recorderTail(64),
	}
	if path := s.recorderDump(); path != "" {
		body["recorder_dump"] = path
	}
	writeJSON(w, http.StatusConflict, body)
}

func notFound(w http.ResponseWriter, what string) {
	writeJSON(w, http.StatusNotFound, errorBody{Error: what + " not found"})
}

// lookup finds the session from the path or writes a 404.
func (srv *Server) lookup(w http.ResponseWriter, r *http.Request) *session {
	s := srv.session(r.PathValue("id"))
	if s == nil {
		notFound(w, "session "+r.PathValue("id"))
	}
	return s
}

// --- session lifecycle endpoints ----------------------------------------

// sessionRequest is everything a session can be asked for, as the
// creation body and as the restore query: a registered algorithm (empty
// selects the default) and whether to autotrace. Any other key is a 400.
type sessionRequest struct {
	Algorithm string `json:"algorithm,omitempty"`
	AutoTrace bool   `json:"autotrace,omitempty"`
}

type sessionBody struct {
	ID        string `json:"id"`
	Algorithm string `json:"algorithm"`
	Autotrace bool   `json:"autotrace"`
	Queued    int    `json:"queued"`
	Failed    string `json:"failed,omitempty"`
}

func (s *session) describe() sessionBody {
	body := sessionBody{ID: s.id, Algorithm: s.req.Algorithm, Autotrace: s.req.AutoTrace, Queued: len(s.jobs)}
	if err := s.latchedFailure(); err != nil {
		body.Failed = err.Error()
	}
	return body
}

func (srv *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req sessionRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSessionBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		srv.fail(w, fmt.Errorf("decoding session config: %w", err))
		return
	}
	s, err := srv.createSession(req, func(c visibility.Config) (*visibility.Runtime, *wire.Env, error) {
		rt := visibility.New(c)
		return rt, wire.NewEnv(rt), nil
	})
	if err != nil {
		srv.fail(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, s.describe())
}

// restoreRequest reads the restore query: the sessionRequest keys, and
// autotrace as a boolean.
func restoreRequest(q url.Values) (sessionRequest, error) {
	known := 0
	for _, key := range []string{"algorithm", "autotrace"} {
		if q.Has(key) {
			known++
		}
	}
	if len(q) > known {
		return sessionRequest{}, fmt.Errorf("restore takes only the algorithm and autotrace parameters")
	}
	req := sessionRequest{Algorithm: q.Get("algorithm")}
	if v := q.Get("autotrace"); v != "" {
		on, err := strconv.ParseBool(v)
		if err != nil {
			return req, fmt.Errorf("bad autotrace %q", v)
		}
		req.AutoTrace = on
	}
	return req, nil
}

func (srv *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	req, err := restoreRequest(r.URL.Query())
	if err != nil {
		srv.fail(w, err)
		return
	}
	s, err := srv.createSession(req,
		func(c visibility.Config) (*visibility.Runtime, *wire.Env, error) {
			rt, roots, err := visibility.Restore(http.MaxBytesReader(w, r.Body, maxWorkloadBody), c)
			if err != nil {
				return nil, nil, err
			}
			env, err := wire.EnvFromRestore(rt, roots)
			if err != nil {
				rt.Close()
				return nil, nil, err
			}
			return rt, env, nil
		})
	if err != nil {
		srv.fail(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, s.describe())
}

func (srv *Server) handleListSessions(w http.ResponseWriter, _ *http.Request) {
	list := srv.sessionList()
	out := make([]sessionBody, 0, len(list))
	for _, s := range list {
		out = append(out, s.describe())
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": out})
}

func (srv *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	s := srv.lookup(w, r)
	if s == nil {
		return
	}
	srv.closeSession(s, true)
	w.WriteHeader(http.StatusNoContent)
}

// --- workload submission ------------------------------------------------

func (srv *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	s := srv.lookup(w, r)
	if s == nil {
		return
	}
	if err := s.latchedFailure(); err != nil {
		srv.failConflict(w, s, err)
		return
	}
	wl, err := wire.DecodeSized(http.MaxBytesReader(w, r.Body, maxWorkloadBody), r.ContentLength)
	if err != nil {
		srv.fail(w, err)
		return
	}
	if err := srv.submit(s, job{tc: traceContext(r), fn: func() {
		if _, err := s.env.Apply(wl); err != nil {
			s.latchFailure(err)
		}
	}}); err != nil {
		srv.fail(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]int{
		"regions": len(wl.Regions),
		"tasks":   len(wl.Tasks),
	})
}

// --- query endpoints (sync jobs: FIFO behind submitted batches) ---------

// query answers one question about a session's region tree: it runs ask on
// the session's worker — the environment and the runtime belong to it, so
// ?region= is resolved there, never on the HTTP goroutine — and writes the
// refusal of a job that could not run or the 404 of an unknown region or of
// whatever ask reports missing. With first, an empty ?region= means the
// lexicographically first root region. It returns the resolved region's
// name and whether the caller still has an answer to write.
func (srv *Server) query(w http.ResponseWriter, r *http.Request, s *session, first bool, ask func(reg *visibility.Region) (missing string)) (string, bool) {
	name := r.URL.Query().Get("region")
	missing := "region " + name
	err := srv.doSync(s, traceContext(r), func() {
		if name == "" && first {
			name = firstRegion(s)
		}
		if reg := s.env.Region(name); reg != nil {
			missing = ask(reg)
		}
	})
	if err != nil {
		srv.fail(w, err)
		return "", false
	}
	if missing != "" {
		notFound(w, missing)
		return "", false
	}
	return name, true
}

// firstRegion names the lexicographically first root region of the session
// environment ("" when there is none). Must run inside a sync job.
func firstRegion(s *session) string {
	if regs := s.env.Regions(); len(regs) > 0 {
		return regs[0].Name()
	}
	return ""
}

// intParam reads an integer query parameter, def when absent, and writes
// the 400 for a value that does not parse or lies below min.
func (srv *Server) intParam(w http.ResponseWriter, r *http.Request, name string, def, min int) (int, bool) {
	q, v := r.URL.Query().Get(name), def
	var err error
	if q != "" {
		v, err = strconv.Atoi(q)
	}
	if err != nil || v < min {
		srv.fail(w, fmt.Errorf("invalid %s %q", name, q))
		return 0, false
	}
	return v, true
}

// writeRaw writes a rendered body under its declared length, so the client
// reads it into one buffer of that size — or the 500 of the error rendering
// it returned.
func writeRaw(w http.ResponseWriter, status int, contentType string, body []byte, err error) {
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		_ = err // client went away mid-body
	}
}

const graphviz = "text/vnd.graphviz"

func (srv *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	s := srv.lookup(w, r)
	if s == nil {
		return
	}
	field := r.URL.Query().Get("field")
	var rows [][]float64
	name, ok := srv.query(w, r, s, false, func(reg *visibility.Region) string {
		if !reg.HasField(field) {
			return fmt.Sprintf("field %q of region %s", field, reg.Name())
		}
		rows = s.rt.Read(reg, field).Rows()
		return ""
	})
	if ok {
		body, err := wire.AppendSnapshot(make([]byte, 0, 64+24*len(rows)), name, field, rows)
		writeRaw(w, http.StatusOK, "application/json", append(body, '\n'), err)
	}
}

func (srv *Server) handleGraph(w http.ResponseWriter, r *http.Request) {
	s := srv.lookup(w, r)
	if s == nil {
		return
	}
	tasks := []visibility.TaskInfo{}
	name, ok := srv.query(w, r, s, false, func(reg *visibility.Region) string {
		if deps := s.rt.Dependences(reg); deps != nil {
			tasks = deps
		}
		return ""
	})
	if ok {
		writeJSON(w, http.StatusOK, map[string]any{"region": name, "tasks": tasks})
	}
}

// handleExplain serves dependence provenance: ?task=N returns the
// reason for every incoming edge of task N; an optional &src=A
// restricts the edges to producer A and adds the mustPrecede verdict (a
// backward search of the graph, windowed to the ids between A and N).
// ?region= selects the root region tree (default: first region, sorted by
// name).
func (srv *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	s := srv.lookup(w, r)
	if s == nil {
		return
	}
	task, ok := srv.intParam(w, r, "task", -1, 0)
	if !ok {
		return
	}
	src := -1
	if r.URL.Query().Get("src") != "" {
		if src, ok = srv.intParam(w, r, "src", 0, 0); !ok {
			return
		}
	}
	var (
		ex          *visibility.TaskExplain
		mustPrecede bool
	)
	name, ok := srv.query(w, r, s, true, func(reg *visibility.Region) string {
		if ex = s.rt.Explain(reg, task); ex == nil {
			return fmt.Sprintf("task %d", task)
		}
		if src >= 0 {
			edges := ex.Edges[:0]
			for _, e := range ex.Edges {
				if e.Src == src {
					edges = append(edges, e)
				}
			}
			ex.Edges = edges
			mustPrecede = s.rt.MustPrecede(reg, src, task)
		}
		return ""
	})
	if !ok {
		return
	}
	srv.rec.Log(recorder.KindExplainQuery, int64(task), int64(len(ex.Edges)))
	body := map[string]any{"region": name, "explain": ex}
	if src >= 0 {
		body["src"] = src
		body["mustPrecede"] = mustPrecede
	}
	writeJSON(w, http.StatusOK, body)
}

// handleCritPath serves the weighted critical-path profile of one session
// tree: ?k= bounds the bottleneck attribution (default 5), ?format=dot
// renders the DAG with the critical path highlighted instead of JSON.
func (srv *Server) handleCritPath(w http.ResponseWriter, r *http.Request) {
	s := srv.lookup(w, r)
	if s == nil {
		return
	}
	k, ok := srv.intParam(w, r, "k", 5, 1)
	if !ok {
		return
	}
	dot := r.URL.Query().Get("format") == "dot"
	var (
		sum    *visibility.CritSummary
		buf    bytes.Buffer
		dotErr error
	)
	name, ok := srv.query(w, r, s, true, func(reg *visibility.Region) string {
		if dot {
			dotErr = s.rt.WriteDOTCrit(reg, &buf)
		} else if sum = s.rt.CriticalPath(reg, k); sum == nil {
			return "critical path (nothing launched)"
		}
		return ""
	})
	if !ok {
		return
	}
	if dot {
		writeRaw(w, http.StatusOK, graphviz, buf.Bytes(), dotErr)
		return
	}
	srv.rec.Log(recorder.KindCritPath, int64(len(sum.Path)), int64(sum.Length))
	writeJSON(w, http.StatusOK, map[string]any{"region": name, "critpath": sum})
}

func (srv *Server) handleDOT(w http.ResponseWriter, r *http.Request) {
	s := srv.lookup(w, r)
	if s == nil {
		return
	}
	var (
		buf    bytes.Buffer
		dotErr error
	)
	if _, ok := srv.query(w, r, s, false, func(reg *visibility.Region) string {
		dotErr = s.rt.WriteDOT(reg, &buf)
		return ""
	}); ok {
		writeRaw(w, http.StatusOK, graphviz, buf.Bytes(), dotErr)
	}
}

func (srv *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	s := srv.lookup(w, r)
	if s == nil {
		return
	}
	var (
		buf     bytes.Buffer
		ckptErr error
	)
	if err := srv.doSync(s, traceContext(r), func() { ckptErr = s.rt.Checkpoint(&buf) }); err != nil {
		srv.fail(w, err)
		return
	}
	writeRaw(w, http.StatusOK, "application/json", buf.Bytes(), ckptErr)
}

// --- observability endpoints --------------------------------------------

// sessionMetricsSnapshot captures a session's registry on its worker —
// computed metrics read live analyzer state, which only the worker may
// touch.
func (srv *Server) sessionMetricsSnapshot(s *session, tc obs.TraceContext) (obs.Snapshot, error) {
	var snap obs.Snapshot
	if err := srv.doSync(s, tc, func() { snap = s.metrics.Snapshot() }); err != nil {
		return nil, err
	}
	return snap, nil
}

func (srv *Server) handleSessionMetrics(w http.ResponseWriter, r *http.Request) {
	s := srv.lookup(w, r)
	if s == nil {
		return
	}
	snap, err := srv.sessionMetricsSnapshot(s, traceContext(r))
	if err != nil {
		srv.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleMetrics merges the server registry with every session's registry
// (namespaced by session id). A session too busy to snapshot reports
// "unavailable" rather than stalling the endpoint. ?format=prom switches
// to the Prometheus text exposition: server metrics unlabeled, session
// metrics labeled {session="<id>"}, names sorted within each block.
func (srv *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		srv.handleMetricsProm(w, r)
		return
	}
	out := map[string]any{"server": srv.metrics.Snapshot()}
	sessions := map[string]any{}
	for _, s := range srv.sessionList() {
		if snap, err := srv.sessionMetricsSnapshot(s, traceContext(r)); err != nil {
			sessions[s.id] = map[string]string{"unavailable": err.Error()}
		} else {
			sessions[s.id] = snap
		}
	}
	out["sessions"] = sessions
	writeJSON(w, http.StatusOK, out)
}

func (srv *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := obs.WriteProm(w, srv.metrics.Typed(), nil); err != nil {
		return // client went away mid-body
	}
	for _, s := range srv.sessionList() {
		var rows []obs.TypedMetric
		if err := srv.doSync(s, traceContext(r), func() { rows = s.metrics.Typed() }); err != nil {
			continue // busy session: omit rather than stall the scrape
		}
		if err := obs.WriteProm(w, rows, map[string]string{"session": s.id}); err != nil {
			return
		}
	}
}

type spansBody struct {
	Spans   []obs.Span `json:"spans"`
	Dropped int64      `json:"dropped"`
}

func (s *session) spansSnapshot() spansBody {
	spans := s.spans.Snapshot()
	if spans == nil {
		spans = []obs.Span{}
	}
	return spansBody{Spans: spans, Dropped: s.spans.Dropped()}
}

func (srv *Server) handleSessionSpans(w http.ResponseWriter, r *http.Request) {
	s := srv.lookup(w, r)
	if s == nil {
		return
	}
	writeJSON(w, http.StatusOK, s.spansSnapshot())
}

func (srv *Server) handleDebugSpans(w http.ResponseWriter, _ *http.Request) {
	out := map[string]spansBody{}
	for _, s := range srv.sessionList() {
		out[s.id] = s.spansSnapshot()
	}
	writeJSON(w, http.StatusOK, out)
}

// handleDebugTrace exports one merged Perfetto-loadable trace: the
// server's HTTP spans on process 0 and each live session's spans
// (queue waits and analysis phases) on their own process track. All
// buffers share the server clock, and traced spans carry their
// trace/span/parent IDs in args, so the viewer shows each request as a
// parented tree spanning both tracks.
func (srv *Server) handleDebugTrace(w http.ResponseWriter, _ *http.Request) {
	tw := obs.NewTraceWriter()
	tw.ProcessName(0, "visserve http")
	tw.Spans(0, 0, srv.spans.Snapshot())
	for i, s := range srv.sessionList() {
		tw.ProcessName(i+1, "session "+s.id+" ("+s.req.Algorithm+")")
		tw.Spans(i+1, 0, s.spans.Snapshot())
	}
	w.Header().Set("Content-Type", "application/json")
	if err := tw.Write(w); err != nil {
		_ = err // client went away mid-body
	}
}

// handleDebugRecorder exposes the flight recorder's last-N-events window
// (?n=, default 256).
func (srv *Server) handleDebugRecorder(w http.ResponseWriter, r *http.Request) {
	n, ok := srv.intParam(w, r, "n", 256, 1)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"events":  srv.recorderTail(n),
		"total":   srv.rec.Len(),
		"dropped": srv.rec.Dropped(),
	})
}

// handleDebugCritPath sweeps every live session and reports the weighted
// critical-path summary of each root region tree (?k= bounds bottleneck
// attribution, default 3). Sessions too busy to query are skipped.
func (srv *Server) handleDebugCritPath(w http.ResponseWriter, r *http.Request) {
	k, ok := srv.intParam(w, r, "k", 3, 1)
	if !ok {
		return
	}
	sessions := map[string]any{}
	for _, s := range srv.sessionList() {
		byRegion := map[string]*visibility.CritSummary{}
		err := srv.doSync(s, traceContext(r), func() {
			for _, reg := range s.env.Regions() {
				if sum := s.rt.CriticalPath(reg, k); sum != nil {
					byRegion[reg.Name()] = sum
				}
			}
		})
		if err != nil {
			continue // busy session: omit rather than stall the sweep
		}
		sessions[s.id] = byRegion
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": sessions})
}

func (srv *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"sessions": srv.SessionCount(),
		"inflight": srv.InFlight(),
	})
}
