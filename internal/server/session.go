package server

import (
	"fmt"
	"sync"
	"time"

	"visibility"
	"visibility/internal/fault"
	"visibility/internal/obs"
	"visibility/internal/obs/recorder"
	"visibility/internal/wire"
)

// session owns one tenant's runtime. The Runtime's single-goroutine rule
// is enforced structurally: every operation that touches rt or env is a
// job, and all jobs run on the session's one worker goroutine, in FIFO
// order — so a snapshot requested after a batch observes the batch
// (read-after-launch coherence), and two tenants never contend.
type session struct {
	id      string
	srv     *Server
	req     sessionRequest // what rt was configured with, default algorithm filled in
	created time.Time
	seq     int64 // numeric id journaled in flight-recorder events

	// rt and env are touched only by the worker goroutine (and by the
	// creating goroutine before the worker starts — createSession's seed
	// callback builds them, and the worker inherits them when run starts).
	rt  *visibility.Runtime
	env *wire.Env

	// metrics and spans are this session's private observability surface;
	// instrument reads are atomic, but computed metrics (analyzer stats)
	// are only safe to snapshot from the worker.
	metrics *obs.Registry
	spans   *obs.Buffer

	jobs chan job
	done chan struct{} // closed when the worker exits

	mu       sync.Mutex
	closing  bool      // guarded by mu
	failure  error     // guarded by mu; latched first worker failure
	lastUsed time.Time // guarded by mu; last accepted request or finished job
	running  bool      // guarded by mu; the worker has taken a job and not finished it
	dumpPath string    // guarded by mu; recorder dump written on failure
}

// job is one unit of worker-goroutine work; sync callers wait on done.
// tc, when valid, is the request trace context the job runs under: the
// worker records the queue wait as a child span and installs tc on the
// session span buffer so analysis spans parent under the HTTP span.
type job struct {
	// fn is the job body; it executes only on the session worker
	// goroutine, inside run's recover envelope.
	fn   func()
	done chan struct{} // nil for fire-and-forget jobs
	tc   obs.TraceContext
	enq  int64 // enqueue time on the session span clock
}

var (
	errSessionBusy    = fmt.Errorf("session queue full")
	errSessionClosing = fmt.Errorf("session is closing")
)

// newSession builds a session around an existing runtime and environment
// (created by the caller; ownership transfers to the worker goroutine the
// moment run starts).
func (srv *Server) newSession(id string, req sessionRequest, rt *visibility.Runtime, env *wire.Env, metrics *obs.Registry, spans *obs.Buffer) *session {
	s := &session{
		id:       id,
		srv:      srv,
		req:      req,
		created:  time.Now(),
		rt:       rt,
		env:      env,
		metrics:  metrics,
		spans:    spans,
		jobs:     make(chan job, srv.cfg.MaxQueue),
		done:     make(chan struct{}),
		lastUsed: time.Now(),
	}
	go s.run()
	return s
}

// run is the worker loop: it drains jobs until the channel closes, then
// releases the runtime. Every accepted job runs exactly once, even during
// close, so sync callers never hang.
func (s *session) run() {
	defer close(s.done)
	for j := range s.jobs {
		if j.tc.Valid() {
			// The time since enqueue is the queue-wait child of the HTTP
			// span; the job's own spans (analysis phases) parent directly
			// under the HTTP span via the installed context.
			s.spans.Record("queue.wait", "queue", j.enq, s.spans.Now(), j.tc)
			s.spans.SetContext(j.tc)
		}
		s.setRunning(true)
		s.srv.rec.Log(recorder.KindJobStart, s.seq, 0)
		s.exec(func() {
			// Fault plane: an injected crash mid-job takes exactly the path
			// a real kernel panic would — recovered by exec, latched as the
			// session failure.
			s.srv.cfg.Faults.Crash(fault.WorkerPanic, s.seq)
			j.fn()
		})
		s.setRunning(false)
		s.srv.rec.Log(recorder.KindJobDone, s.seq, 0)
		if j.tc.Valid() {
			s.spans.SetContext(obs.TraceContext{})
		}
		if j.done != nil {
			close(j.done)
		}
		s.srv.jobDone()
	}
	s.exec(func() { s.rt.Close() })
}

// exec runs one job, converting a panic into a latched session failure —
// one tenant's malformed computation must not take the process down.
func (s *session) exec(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			s.latchFailure(fmt.Errorf("session worker: %v", r))
		}
	}()
	fn()
}

// enqueue admits one job to the session queue. The closing flag and the
// send share the mutex with beginClose, so a send can never race the
// close of the channel.
func (s *session) enqueue(j job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return errSessionClosing
	}
	j.enq = s.spans.Now()
	select {
	case s.jobs <- j:
		s.lastUsed = time.Now()
		return nil
	default:
		return errSessionBusy
	}
}

// beginClose initiates shutdown: exactly one caller closes the channel,
// under the same mutex enqueue sends under.
func (s *session) beginClose() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return false
	}
	s.closing = true
	close(s.jobs)
	return true
}

// latchedFailure returns the first worker failure, if any.
func (s *session) latchedFailure() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failure
}

// latchFailure records err as the session failure if none is latched yet;
// the first latch triggers the server's failure reaction (flight-recorder
// event and, when configured, a dump to disk). The whole reaction runs
// under mu — evidence before signal: whoever learns of the failure, from
// the journal or from a 409, and then reads the session finds its dump path
// already set.
func (s *session) latchFailure(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failure != nil {
		return
	}
	s.failure = err
	s.dumpPath = s.srv.sessionFailed(s.seq)
}

// recorderDump returns the failure dump path, if one was written.
func (s *session) recorderDump() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dumpPath
}

// setRunning marks the worker as holding a job (true) or done with it
// (false). Finishing a job counts as use, so a job that outlasts
// IdleTimeout does not leave its session expirable the moment it ends.
func (s *session) setRunning(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.running = on
	if !on {
		s.lastUsed = time.Now()
	}
}

// idleSince reports when the session was last used and whether it has a
// job queued or running, for the janitor.
func (s *session) idleSince() (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastUsed, s.running || len(s.jobs) > 0
}
