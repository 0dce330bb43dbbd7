package server

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"visibility"
	"visibility/internal/obs"
	"visibility/internal/wire"
)

// session owns one tenant's runtime. The Runtime's single-goroutine rule
// is a lock: every operation that touches rt or env is a request's job,
// and the request runs it on its own goroutine while it holds run, one
// job at a time — so a snapshot requested after a batch was answered
// observes the batch (read-after-launch coherence), and two tenants never
// contend.
type session struct {
	id  string
	srv *Server
	req sessionRequest // what rt was configured with, default algorithm filled in
	seq int64          // numeric id journaled in flight-recorder events

	run sync.Mutex          // held by the request whose job is running
	rt  *visibility.Runtime // guarded by run
	env *wire.Env           // guarded by run

	// metrics and spans are this session's private observability surface;
	// instrument reads are atomic, but computed metrics (analyzer stats)
	// are only safe to snapshot under run.
	metrics *obs.Registry
	spans   *obs.Buffer

	done chan struct{} // closed once the runtime is released

	mu       sync.Mutex
	closing  bool      // guarded by mu
	failure  error     // guarded by mu; latched first job failure
	lastUsed time.Time // guarded by mu; last admitted or finished request
	admitted int       // guarded by mu; requests admitted and not finished
	waiting  int       // guarded by mu; admitted requests not yet holding run
	dumpPath string    // guarded by mu; recorder dump written on failure
}

var (
	errSessionBusy    = fmt.Errorf("session queue full")
	errSessionClosing = fmt.Errorf("session is closing")
)

// failedError is the failure a request's own job latched; fail answers it
// with the session's 409.
type failedError struct {
	s   *session
	err error
}

func (e *failedError) Error() string { return e.err.Error() }

// exec runs one job, converting a panic or a returned error into a latched
// session failure — one tenant's malformed computation must not take the
// process down. It returns the session's failure when the job failed. A
// workload the checker refused changed nothing: its error is the
// request's alone.
func (s *session) exec(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("session job: %v", r)
		}
		if err != nil && !errors.As(err, new(*wire.CheckError)) {
			err = s.latchFailure(err)
		}
	}()
	return fn()
}

// enter admits one request to the session: it waits for run behind at
// most max others. The closing flag and the count share the mutex with
// beginClose, so no request enters a session whose runtime is released.
func (s *session) enter(max int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return errSessionClosing
	}
	if s.waiting >= max {
		return errSessionBusy
	}
	s.waiting++
	s.admitted++
	s.lastUsed = time.Now()
	return nil
}

// took records that an admitted request now holds run.
func (s *session) took() {
	s.mu.Lock()
	s.waiting--
	s.mu.Unlock()
}

// leave retires an admitted request, after its job and after run is
// released. Finishing counts as use, so a job that outlasts IdleTimeout
// does not leave its session expirable the moment it ends. The last
// request to leave a closing session releases the runtime.
func (s *session) leave() {
	s.mu.Lock()
	s.admitted--
	s.lastUsed = time.Now()
	last := s.closing && s.admitted == 0
	s.mu.Unlock()
	if last {
		s.release()
	}
}

// beginClose refuses every later request. Exactly one caller wins; when
// no admitted request is left to do it, the winner releases the runtime.
func (s *session) beginClose() bool {
	s.mu.Lock()
	won, idle := !s.closing, s.admitted == 0
	s.closing = true
	s.mu.Unlock()
	if won && idle {
		s.release()
	}
	return won
}

// release closes the runtime once no request can reach it, and signals done.
func (s *session) release() {
	s.run.Lock()
	rt := s.rt
	_ = s.exec(func() error { rt.Close(); return nil })
	s.run.Unlock()
	close(s.done)
}

// latchedFailure returns the first job failure, if any.
func (s *session) latchedFailure() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failure
}

// latchFailure records err as the session failure if none is latched yet
// and returns the latched one as a failedError; the first latch triggers
// the server's failure reaction (flight-recorder event and, when
// configured, a dump to disk). The whole reaction runs under mu — evidence
// before signal: whoever learns of the failure, from the journal or from a
// 409, and then reads the session finds its dump path already set.
func (s *session) latchFailure(err error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failure == nil {
		s.failure = err
		s.dumpPath = s.srv.sessionFailed(s.seq)
	}
	return &failedError{s: s, err: s.failure}
}

// recorderDump returns the failure dump path, if one was written.
func (s *session) recorderDump() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dumpPath
}

// idleSince reports when the session was last used and whether it has
// admitted requests, for the janitor.
func (s *session) idleSince() (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastUsed, s.admitted > 0
}
