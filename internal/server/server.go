// Package server is the network-facing multi-tenant analysis service:
// each session owns a visibility.Runtime (with its own coherence
// algorithm, autotrace setting, and observability registry) behind a
// mutex: each request runs its own job on its HTTP goroutine while it holds
// the session, and clients speak the wire format over HTTP.
//
// Admission control is two-level and bounded everywhere: a global
// in-flight request cap protects the process, a per-session cap bounds the
// requests waiting for one session, and both overflows surface as 429 with
// a Retry-After header rather than unbounded buffering. Sessions expire
// when idle, close on demand, and drain gracefully on shutdown — the
// session count returns to zero and every runtime is released.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"visibility"
	"visibility/internal/algo"
	"visibility/internal/fault"
	"visibility/internal/obs"
	"visibility/internal/obs/recorder"
	"visibility/internal/wire"
)

// Config bounds the service. The zero value gets serving defaults.
type Config struct {
	// MaxSessions caps concurrently live sessions (default 64).
	MaxSessions int
	// MaxQueue caps the requests waiting for each session (default 32).
	MaxQueue int
	// MaxInFlight caps admitted requests across all sessions (default 256).
	MaxInFlight int
	// IdleTimeout expires sessions with no accepted requests for this
	// long (default 5m; negative disables expiry).
	IdleTimeout time.Duration
	// SpanCap is each session's span ring capacity (default 4096).
	SpanCap int
	// RecorderCap is the flight-recorder ring capacity (default 16384).
	RecorderCap int
	// RecorderDir, when non-empty, is where the flight recorder dumps its
	// window on a session failure; the dump path is reported in the 409
	// body and the session description.
	RecorderDir string
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Faults, when non-nil, arms the deterministic fault-injection plane
	// across the service: job panics at the serving layer, plus the
	// analyzer sites (forced splits, migrations and trace invalidations)
	// in the sessions it creates. Fires are journaled to the server's
	// flight recorder.
	Faults *fault.Injector
}

func (c Config) withDefaults() Config {
	if c.MaxSessions == 0 {
		c.MaxSessions = 64
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 32
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 256
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.SpanCap == 0 {
		c.SpanCap = 4096
	}
	if c.RecorderCap == 0 {
		c.RecorderCap = 16384
	}
	return c
}

// Server is the multi-tenant analysis service. Create with New, mount
// Handler on an http.Server, and call Shutdown to drain.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	metrics *obs.Registry // server-level: http counters + endpoint latency

	// clock is the process-wide monotonic clock shared by the server span
	// buffer, every session span buffer, and the flight recorder, so their
	// timestamps merge onto one axis in the exported trace.
	clock func() int64
	spans *obs.Buffer        // server-level: one span per HTTP request
	rec   *recorder.Recorder // process-wide flight recorder

	active   *obs.Gauge
	rejected *obs.Counter

	mu       sync.Mutex
	sessions map[string]*session // guarded by mu
	nextID   int                 // guarded by mu
	inflight int                 // guarded by mu; requests admitted, not yet finished
	draining bool                // guarded by mu

	janitorStop chan struct{}
	janitorDone chan struct{}

	dumpSeq atomic.Int64 // recorder dump file sequence
}

// New creates a server and starts its idle-session janitor.
func New(cfg Config) *Server {
	base := time.Now()
	clock := func() int64 { return time.Since(base).Nanoseconds() }
	srv := &Server{
		cfg:         cfg.withDefaults(),
		mux:         http.NewServeMux(),
		metrics:     obs.NewRegistry(),
		clock:       clock,
		sessions:    make(map[string]*session),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	srv.spans = obs.NewBufferClock(srv.cfg.SpanCap, clock)
	srv.rec = recorder.NewClock(srv.cfg.RecorderCap, clock)
	srv.cfg.Faults.SetRecorder(srv.rec)
	srv.active = srv.metrics.NewGauge("server/sessions/active")
	srv.rejected = srv.metrics.NewCounter("server/admission/rejected")
	srv.routes()
	go srv.janitor()
	return srv
}

// Handler returns the HTTP handler serving the full API.
func (srv *Server) Handler() http.Handler { return srv.mux }

// Metrics returns the server-level registry (session registries are
// separate by design).
func (srv *Server) Metrics() *obs.Registry { return srv.metrics }

// Recorder returns the process-wide flight recorder.
func (srv *Server) Recorder() *recorder.Recorder { return srv.rec }

// DumpRecorder writes the flight-recorder window to a fresh file in dir
// and returns its path.
func (srv *Server) DumpRecorder(dir string) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("visserve-recorder-%d-%d.txt", os.Getpid(), srv.dumpSeq.Add(1)))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := srv.rec.Dump(f); err != nil {
		_ = f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// sessionFailed is the server's reaction to session seq latching its first
// failure: the event is journaled, and when RecorderDir is set the recorder
// window — worker_fail included — is dumped to disk so the state leading up
// to the failure survives the session. It returns the dump path for the 409
// body, "" when no dump was written.
func (srv *Server) sessionFailed(seq int64) string {
	srv.rec.Log(recorder.KindWorkerFail, seq, 0)
	if srv.cfg.RecorderDir == "" {
		return ""
	}
	path, err := srv.DumpRecorder(srv.cfg.RecorderDir)
	if err != nil {
		srv.metrics.NewCounter("server/recorder/dump_errors").Inc()
		return ""
	}
	return path
}

// SessionCount returns the number of live sessions.
func (srv *Server) SessionCount() int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return len(srv.sessions)
}

// InFlight returns the number of admitted-but-unfinished requests.
func (srv *Server) InFlight() int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.inflight
}

// --- session lifecycle --------------------------------------------------

var errTooManySessions = fmt.Errorf("session limit reached")

// createSession builds a new session around the runtime and environment
// seed returns (a fresh runtime, or one restored from a checkpoint).
func (srv *Server) createSession(req sessionRequest, seed func(cfg visibility.Config) (*visibility.Runtime, *wire.Env, error)) (*session, error) {
	spec, err := algo.Spec{Algorithm: req.Algorithm, AutoTrace: req.AutoTrace}.Check()
	if err != nil {
		return nil, err
	}
	req.Algorithm = spec.Algorithm
	metrics := obs.NewRegistry()
	// The session buffer shares the server clock so HTTP, queue-wait, and
	// analysis spans land on one time axis in the merged export.
	spans := obs.NewBufferClock(srv.cfg.SpanCap, srv.clock)
	metrics.RegisterFunc("spans/dropped", spans.Dropped)
	cfg := visibility.Config{
		Algorithm: req.Algorithm,
		AutoTrace: req.AutoTrace,
		Metrics:   metrics,
		Spans:     spans,
		Recorder:  srv.rec,
		Faults:    srv.cfg.Faults,
	}
	rt, env, err := seed(cfg)
	if err != nil {
		return nil, err
	}

	srv.mu.Lock()
	if srv.draining {
		srv.mu.Unlock()
		rt.Close()
		return nil, errDraining
	}
	if len(srv.sessions) >= srv.cfg.MaxSessions {
		srv.mu.Unlock()
		rt.Close()
		return nil, errTooManySessions
	}
	srv.nextID++
	id := fmt.Sprintf("s%06d", srv.nextID)
	s := &session{
		id:       id,
		srv:      srv,
		req:      req,
		created:  time.Now(),
		seq:      int64(srv.nextID),
		rt:       rt,
		env:      env,
		metrics:  metrics,
		spans:    spans,
		done:     make(chan struct{}),
		lastUsed: time.Now(),
	}
	srv.sessions[id] = s
	srv.active.Set(int64(len(srv.sessions)))
	srv.mu.Unlock()
	srv.rec.Log(recorder.KindSessionOpen, s.seq, 0)
	return s, nil
}

// session returns the live session with the given id, or nil.
func (srv *Server) session(id string) *session {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.sessions[id]
}

// sessionList returns the live sessions, sorted by id.
func (srv *Server) sessionList() []*session {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	out := make([]*session, 0, len(srv.sessions))
	for _, s := range srv.sessions {
		out = append(out, s)
	}
	// Deterministic order: janitor expiry and metrics merging walk this
	// list, and the recorder events they emit are compared across runs.
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// closeSession removes s from the table and closes it; when wait is true
// it blocks until the runtime is released.
func (srv *Server) closeSession(s *session, wait bool) {
	srv.removeSession(s)
	if wait {
		<-s.done
	}
}

// removeSession starts s's shutdown and, for the caller that wins the
// race to close it, takes it out of the table and journals session_close.
func (srv *Server) removeSession(s *session) {
	if !s.beginClose() {
		return
	}
	srv.mu.Lock()
	delete(srv.sessions, s.id)
	srv.active.Set(int64(len(srv.sessions)))
	srv.mu.Unlock()
	srv.rec.Log(recorder.KindSessionClose, s.seq, 0)
}

// --- admission ----------------------------------------------------------

var (
	errDraining = fmt.Errorf("server is draining")
	errOverload = fmt.Errorf("server in-flight limit reached")
)

// admit reserves one global in-flight slot; the caller releases it via
// finish.
func (srv *Server) admit() error {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.draining {
		return errDraining
	}
	if srv.inflight >= srv.cfg.MaxInFlight {
		return errOverload
	}
	srv.inflight++
	return nil
}

func (srv *Server) finish() {
	srv.mu.Lock()
	srv.inflight--
	srv.mu.Unlock()
}

// do runs one request's job on the calling goroutine. It admits the
// request (the global in-flight cap, then the session's cap on requests
// waiting for it), waits for the session's lock — with the request's trace
// context valid, the wait is the queue.wait child of the HTTP span, and
// the job's own spans parent under the HTTP span — and runs fn on the
// runtime and environment inside the recover envelope, journaled under
// the request's route. A panic or an error from fn latches as the session
// failure, and do returns it as a *failedError — to every later request
// too, without running its fn — unless the error is a workload's
// *wire.CheckError, raised before anything changed.
func (srv *Server) do(s *session, req request, fn func(rt *visibility.Runtime, env *wire.Env) error) error {
	if err := srv.admit(); err != nil {
		srv.rejected.Inc()
		srv.rec.LogS(recorder.KindAdmitReject, s.seq, "global_cap")
		return err
	}
	if err := s.enter(srv.cfg.MaxQueue); err != nil {
		srv.finish()
		if err == errSessionBusy {
			srv.rejected.Inc()
			srv.rec.LogS(recorder.KindAdmitReject, s.seq, "session_queue")
		} else {
			srv.rec.LogS(recorder.KindAdmitReject, s.seq, "session_closing")
		}
		return err
	}
	defer s.leave()
	defer srv.finish()

	enq := s.spans.Now()
	s.run.Lock()
	defer s.run.Unlock()
	s.took()
	if tc := req.tc; tc.Valid() {
		s.spans.Record("queue.wait", "queue", enq, s.spans.Now(), tc)
		s.spans.SetContext(tc)
		defer s.spans.SetContext(obs.TraceContext{})
	}
	if err := s.latchedFailure(); err != nil {
		return &failedError{s: s, err: err}
	}
	srv.rec.LogS(recorder.KindJobStart, s.seq, req.route)
	rt, env := s.rt, s.env
	err := s.exec(func() error {
		// Fault plane: an injected crash mid-job takes exactly the path a
		// real kernel panic would — recovered by exec, latched as the
		// session failure.
		srv.cfg.Faults.Crash(fault.WorkerPanic, s.seq)
		return fn(rt, env)
	})
	// A job that latched the failure ends in its worker_fail.
	if err == nil || !errors.As(err, new(*failedError)) {
		srv.rec.Log(recorder.KindJobDone, s.seq, 0)
	}
	return err
}

// --- janitor and shutdown -----------------------------------------------

// janitor expires sessions that have been idle (no admitted requests)
// longer than IdleTimeout.
func (srv *Server) janitor() {
	defer close(srv.janitorDone)
	if srv.cfg.IdleTimeout < 0 {
		<-srv.janitorStop
		return
	}
	tick := srv.cfg.IdleTimeout / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	expired := srv.metrics.NewCounter("server/sessions/expired")
	for {
		select {
		case <-srv.janitorStop:
			return
		case <-t.C:
			cutoff := time.Now().Add(-srv.cfg.IdleTimeout)
			for _, s := range srv.sessionList() {
				last, busy := s.idleSince()
				if !busy && last.Before(cutoff) {
					srv.closeSession(s, false)
					expired.Inc()
				}
			}
		}
	}
}

// Shutdown drains the service: new sessions and requests are refused
// (503), every live session finishes its admitted requests and releases
// its runtime, and the janitor stops. After Shutdown the session count is
// zero. The context bounds the wait for in-flight work.
func (srv *Server) Shutdown(ctx context.Context) error {
	srv.mu.Lock()
	already := srv.draining
	srv.draining = true
	srv.mu.Unlock()
	if !already {
		close(srv.janitorStop)
	}
	<-srv.janitorDone

	for _, s := range srv.sessionList() {
		srv.removeSession(s)
		select {
		case <-s.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}
