package obs

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"
	"sync/atomic"
)

// TraceContext identifies a position in a request-scoped distributed
// trace: the 16-byte trace ID shared by every span of one request,
// lower-hex encoded as in the W3C Trace Context "traceparent" header, and
// the ID of the current span. The zero value means "no context"; every
// consumer treats it as absent.
//
// The serving stack threads one TraceContext per HTTP request from the
// client (which mints the root), through the server middleware, across
// the wait for the session lock, and into the analysis span buffer — so one
// export shows HTTP span → queue-wait span → one analysis span per launch
// as a single parented tree.
type TraceContext struct {
	TraceID string `json:"trace,omitempty"`
	SpanID  SpanID `json:"span,omitempty"`
}

// SpanID is the 8-byte identity of one span; zero means none. It is an
// integer so that a span begun under an installed context mints and stores
// its ID without allocating. Text — the traceparent header, JSON, the trace
// export — carries it as 16 lowercase hex digits.
type SpanID uint64

// String renders id as 16 lowercase hex digits.
func (id SpanID) String() string {
	return hex.EncodeToString(binary.BigEndian.AppendUint64(nil, uint64(id)))
}

func (id SpanID) MarshalText() ([]byte, error) { return []byte(id.String()), nil }

func (id *SpanID) UnmarshalText(text []byte) error {
	if *id = parseSpanID(string(text)); *id == 0 {
		return fmt.Errorf("obs: malformed span ID %q", text)
	}
	return nil
}

// parseSpanID reads 16 lowercase hex digits, not all zero; 0 for anything
// else.
func parseSpanID(s string) SpanID {
	if len(s) != 16 || !isLowerHex(s) {
		return 0
	}
	v, _ := strconv.ParseUint(s, 16, 64)
	return SpanID(v)
}

// Valid reports whether the context carries both IDs.
func (tc TraceContext) Valid() bool { return tc.TraceID != "" && tc.SpanID != 0 }

// Traceparent renders the context as a W3C traceparent header value
// (version 00, sampled flag set). Invalid contexts render empty.
func (tc TraceContext) Traceparent() string {
	if !tc.Valid() {
		return ""
	}
	return "00-" + tc.TraceID + "-" + tc.SpanID.String() + "-01"
}

// ParseTraceparent parses a W3C traceparent header value
// "vv-<32 hex trace>-<16 hex span>-<2 hex flags>" at its fixed offsets. A
// version-00 header is exactly those 55 characters; an unknown version is
// parsed as 00 and may go on past a '-' (per the spec), version ff is
// forbidden. All-zero IDs are rejected; ok is false for anything unusable,
// including the empty string.
func ParseTraceparent(s string) (TraceContext, bool) {
	if len(s) < 55 || len(s) > 55 && (s[:2] == "00" || s[55] != '-') ||
		s[2] != '-' || s[35] != '-' || s[52] != '-' ||
		!isLowerHex(s[:2]) || s[:2] == "ff" || !isLowerHex(s[53:55]) {
		return TraceContext{}, false
	}
	trace, span := s[3:35], parseSpanID(s[36:52])
	if !isLowerHex(trace) || allZero(trace) || span == 0 {
		return TraceContext{}, false
	}
	return TraceContext{TraceID: trace, SpanID: span}, true
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// ID generation: a per-process random salt mixed with an atomic counter
// through a splitmix64 finalizer. IDs are unique within the process and
// collide across processes only with the salt's 2^-64 probability —
// exactly the regime trace IDs need, without per-ID syscall cost.
var (
	idSalt atomic.Uint64
	idCtr  atomic.Uint64
)

func init() {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		idSalt.Store(binary.LittleEndian.Uint64(b[:]))
	}
}

func nextID() uint64 {
	z := idSalt.Load() + idCtr.Add(1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // the all-zero ID is invalid per the W3C spec
	}
	return z
}

// NewSpanID returns a fresh span ID.
func NewSpanID() SpanID { return SpanID(nextID()) }

// NewTraceID returns a fresh 32-hex-digit trace ID.
func NewTraceID() string { return NewSpanID().String() + NewSpanID().String() }

// NewTraceContext mints a root context: a fresh trace with a fresh span.
func NewTraceContext() TraceContext {
	return TraceContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
}

// Child returns a context in the same trace with a fresh span ID —
// the identity of a new span parented under tc.
func (tc TraceContext) Child() TraceContext {
	return TraceContext{TraceID: tc.TraceID, SpanID: NewSpanID()}
}
