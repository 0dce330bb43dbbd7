// Package client is the Go client for the visserve analysis service: it
// speaks the wire format over HTTP, honors the server's backpressure
// contract (429 + Retry-After is retried with the advertised delay plus
// bounded random jitter, up to a bounded attempt budget), and mirrors
// the session lifecycle — create, submit, query, checkpoint, restore,
// close. Each request carries a W3C traceparent header, so server-side
// spans join the client's trace.
package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"visibility"
	"visibility/internal/obs"
	"visibility/internal/wire"
)

// Client talks to one visserve instance.
type Client struct {
	base string
	hc   *http.Client
	// MaxRetries bounds 429 retries per request (default 20).
	MaxRetries int
	// RetryWait overrides the server's Retry-After delay when set —
	// tests and load harnesses use a short wait. Jitter still applies.
	RetryWait time.Duration
	// Spans, when non-nil, records one "client.<method> <path>" span per
	// request; its trace context is what the traceparent header carries,
	// so a merged export parents the server's HTTP span under it.
	Spans *obs.Buffer
}

// retryDelay spreads retries over [base, 1.5*base]: synchronized 429
// retries from many clients would otherwise re-collide on the server at
// Retry-After boundaries (thundering herd). The global math/rand source
// is goroutine-safe.
func retryDelay(base time.Duration) time.Duration {
	if base <= 0 {
		return 0
	}
	return base + time.Duration(rand.Int63n(int64(base)/2+1))
}

// New creates a client for the server at base (e.g.
// "http://127.0.0.1:8080").
func New(base string) *Client {
	return &Client{base: base, hc: &http.Client{}, MaxRetries: 20}
}

// SessionConfig selects a session's analysis: a registered algorithm
// (empty selects the server default) and whether to autotrace. Its JSON
// form is the session-creation body; Restore sends it as the query.
type SessionConfig struct {
	Algorithm string `json:"algorithm,omitempty"`
	AutoTrace bool   `json:"autotrace,omitempty"`
}

// Session is a handle to one server-side session.
type Session struct {
	c    *Client
	ID   string
	last atomic.Int64 // length of the last submitted body, the next one's starting capacity
}

// StatusError is a non-2xx response, with the server's error body.
type StatusError struct {
	Code    int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Code, e.Message)
}

// do issues one request, retrying 429s per the Retry-After header (plus
// jitter), and decodes a JSON body into out when out is non-nil. body,
// when non-nil, is re-readable (bytes.Reader) so retries can rewind it.
// The whole call — retries included — is covered by one client span, and
// every attempt carries its traceparent.
func (c *Client) do(method, path string, body []byte, out any) error {
	sp, tc := c.Spans.BeginSpan("client."+method+" "+path, "client", obs.TraceContext{})
	defer sp.End()
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, c.base+path, rd)
		if err != nil {
			return err
		}
		req.Header.Set("traceparent", tc.Traceparent())
		resp, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		data, err := wire.ReadBody(resp.Body, resp.ContentLength)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < c.MaxRetries {
			wait := c.RetryWait
			if wait == 0 {
				secs, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
				if secs < 1 {
					secs = 1
				}
				wait = time.Duration(secs) * time.Second
			}
			time.Sleep(retryDelay(wait))
			continue
		}
		if resp.StatusCode >= 300 {
			var eb struct {
				Error string `json:"error"`
			}
			if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
				return &StatusError{Code: resp.StatusCode, Message: eb.Error}
			}
			return &StatusError{Code: resp.StatusCode, Message: string(data)}
		}
		if out == nil {
			return nil
		}
		switch dst := out.(type) {
		case *[]byte:
			*dst = data
			return nil
		default:
			return json.Unmarshal(data, out)
		}
	}
}

// CreateSession creates a session with the given runtime configuration.
func (c *Client) CreateSession(cfg SessionConfig) (*Session, error) {
	body, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	var resp struct {
		ID string `json:"id"`
	}
	if err := c.do("POST", "/v1/sessions", body, &resp); err != nil {
		return nil, err
	}
	return &Session{c: c, ID: resp.ID}, nil
}

// Session returns a handle to an existing server-side session by id
// (no server round-trip; a bad id surfaces as a 404 on first use).
func (c *Client) Session(id string) *Session {
	return &Session{c: c, ID: id}
}

// Restore creates a session seeded from a checkpoint.
func (c *Client) Restore(checkpoint []byte, cfg SessionConfig) (*Session, error) {
	q := url.Values{}
	if cfg.Algorithm != "" {
		q.Set("algorithm", cfg.Algorithm)
	}
	if cfg.AutoTrace {
		q.Set("autotrace", "true")
	}
	path := "/v1/sessions/restore"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var resp struct {
		ID string `json:"id"`
	}
	if err := c.do("POST", path, checkpoint, &resp); err != nil {
		return nil, err
	}
	return &Session{c: c, ID: resp.ID}, nil
}

// SessionInfo is the server's description of one live session.
type SessionInfo struct {
	ID        string `json:"id"`
	Algorithm string `json:"algorithm"`
	Autotrace bool   `json:"autotrace"`
	Queued    int    `json:"queued"`
	Failed    string `json:"failed,omitempty"`
}

// Sessions lists the live sessions, sorted by id.
func (c *Client) Sessions() ([]SessionInfo, error) {
	var resp struct {
		Sessions []SessionInfo `json:"sessions"`
	}
	if err := c.do("GET", "/v1/sessions", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Sessions, nil
}

// Metrics returns the merged server + per-session metrics snapshot.
func (c *Client) Metrics() (map[string]json.RawMessage, error) {
	var out map[string]json.RawMessage
	if err := c.do("GET", "/metrics", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// DebugTrace downloads the server's merged Chrome trace-event export
// (HTTP spans + every session's queue/analysis spans, one time axis).
func (c *Client) DebugTrace() ([]byte, error) {
	var raw []byte
	if err := c.do("GET", "/debug/trace", nil, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// DebugRecorder returns the flight recorder's text lines: the dropped
// count, then the newest n events (n<=0 uses the server default window).
func (c *Client) DebugRecorder(n int) ([]string, error) {
	path := "/debug/recorder"
	if n > 0 {
		path += "?n=" + strconv.Itoa(n)
	}
	var raw []byte
	if err := c.do("GET", path, nil, &raw); err != nil {
		return nil, err
	}
	return strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n"), nil
}

// Submit sends one workload to the session; the server answers 202 once
// the batch is applied, and 429s are retried through backpressure.
func (s *Session) Submit(wl *wire.Workload) error {
	body, err := wire.AppendWorkload(make([]byte, 0, s.last.Load()), wl)
	if err != nil {
		return err
	}
	s.last.Store(int64(len(body)))
	return s.c.do("POST", "/v1/sessions/"+s.ID+"/workloads", body, nil)
}

// get issues GET /v1/sessions/<id>/<what> with a query built from
// alternating key, value strings — escaped, since wire accepts any
// non-empty region or field name. Pairs with an empty value are left out.
func (s *Session) get(what string, out any, kv ...string) error {
	q := url.Values{}
	for i := 0; i+1 < len(kv); i += 2 {
		if kv[i+1] != "" {
			q.Set(kv[i], kv[i+1])
		}
	}
	path := "/v1/sessions/" + s.ID + "/" + what
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	return s.c.do("GET", path, nil, out)
}

// Snapshot reads region/field's coherent contents: rows of (coordinates...,
// value) in deterministic point order, capped windows of one backing array.
func (s *Session) Snapshot(region, field string) ([][]float64, error) {
	var raw []byte
	if err := s.get("snapshot", &raw, "region", region, "field", field); err != nil {
		return nil, err
	}
	_, _, points, err := wire.ParseSnapshot(raw)
	return points, err
}

// Dependences returns the discovered dependence graph for the tree of
// the named region.
func (s *Session) Dependences(region string) ([]visibility.TaskInfo, error) {
	var resp struct {
		Tasks []visibility.TaskInfo `json:"tasks"`
	}
	if err := s.get("graph", &resp, "region", region); err != nil {
		return nil, err
	}
	return resp.Tasks, nil
}

// ExplainResult is the server's provenance answer for one task: the
// resolved region, the task's incoming edges, and — when the query named
// a source task — the mustPrecede verdict for that (src, task) pair.
type ExplainResult = wire.ExplainResult

// Explain returns the provenance of every incoming dependence edge of
// the given task. An empty region selects the server's default (first
// root region, sorted by name).
func (s *Session) Explain(region string, task int) (*ExplainResult, error) {
	return s.explain("task", strconv.Itoa(task), "region", region)
}

// Why returns the provenance edges from src into dst plus whether src
// must precede dst in every legal execution. An empty region selects the
// server's default root region.
func (s *Session) Why(region string, src, dst int) (*ExplainResult, error) {
	return s.explain("task", strconv.Itoa(dst), "src", strconv.Itoa(src), "region", region)
}

// explain asks the explain route and reads its body through wire's tables.
func (s *Session) explain(kv ...string) (*ExplainResult, error) {
	var raw []byte
	if err := s.get("explain", &raw, kv...); err != nil {
		return nil, err
	}
	return wire.ParseExplain(raw)
}

// CritPath returns the weighted critical-path profile of the session's
// dependence graph; k bounds the bottleneck attribution (k<=0 uses the
// server default). An empty region selects the server's default root
// region.
func (s *Session) CritPath(region string, k int) (*visibility.CritSummary, error) {
	var ks string
	if k > 0 {
		ks = strconv.Itoa(k)
	}
	var resp struct {
		CritPath *visibility.CritSummary `json:"critpath"`
	}
	if err := s.get("critpath", &resp, "region", region, "k", ks); err != nil {
		return nil, err
	}
	return resp.CritPath, nil
}

// CritDOT returns the dependence graph in Graphviz format with the
// weighted critical path highlighted and time-annotated.
func (s *Session) CritDOT(region string) (string, error) {
	var raw []byte
	if err := s.get("critpath", &raw, "format", "dot", "region", region); err != nil {
		return "", err
	}
	return string(raw), nil
}

// Checkpoint downloads the session's checkpoint.
func (s *Session) Checkpoint() ([]byte, error) {
	var raw []byte
	if err := s.c.do("GET", "/v1/sessions/"+s.ID+"/checkpoint", nil, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// Metrics returns the session's metrics snapshot.
func (s *Session) Metrics() (obs.Snapshot, error) {
	var snap obs.Snapshot
	if err := s.c.do("GET", "/v1/sessions/"+s.ID+"/metrics", nil, &snap); err != nil {
		return nil, err
	}
	return snap, nil
}

// Close deletes the session; the server drains its queue and releases
// the runtime before returning.
func (s *Session) Close() error {
	return s.c.do("DELETE", "/v1/sessions/"+s.ID, nil, nil)
}
