package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Span is one named stage inside a request trace, with offsets relative to
// the trace's start so snapshots are self-contained.
type Span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // offset from the trace start
	DurNS   int64  `json:"dur_ns"`
}

// Trace records one request's path through the service: which endpoint,
// how long, and the per-stage spans (cache probe, coalesced-flight wait,
// store read, analysis) the handlers chose to record. Traces are mutable
// while the request runs and frozen by Finish; the ring snapshots them
// under their own mutex, so a span landing from a detached coalesced
// flight after the response went out is still recorded safely.
//
// All methods are nil-safe: code paths instrument unconditionally and a
// request without tracing (no middleware, background work) costs a nil
// check.
type Trace struct {
	mu       sync.Mutex
	id       string
	endpoint string
	method   string
	path     string
	status   int
	start    time.Time
	durNS    int64
	spans    []Span
}

// traceSpanCap preallocates span storage; a request recording at most this
// many spans never reallocates. A cold /v1/analyze records the most: its
// five stage spans (read, decode, finalize, hash, encode) plus one
// analysis or store span per method. Overflow spans still append (correctness
// over the alloc nicety — tracing is request-path, not analysis-path).
const traceSpanCap = 16

// NewTrace starts a trace for one request.
func NewTrace(id, endpoint, method, path string, start time.Time) *Trace {
	return &Trace{
		id:       id,
		endpoint: endpoint,
		method:   method,
		path:     path,
		start:    start,
		spans:    make([]Span, 0, traceSpanCap),
	}
}

// AddSpan records a stage that started at start and ends now.
func (t *Trace) AddSpan(name string, start time.Time) {
	if t == nil {
		return
	}
	t.AddSpanDur(name, start, time.Since(start))
}

// AddSpanDur records a stage with an explicit duration.
func (t *Trace) AddSpanDur(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{
		Name:    name,
		StartNS: start.Sub(t.start).Nanoseconds(),
		DurNS:   d.Nanoseconds(),
	})
	t.mu.Unlock()
}

// Finish stamps the request's terminal status and total duration.
func (t *Trace) Finish(status int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.status = status
	t.durNS = time.Since(t.start).Nanoseconds()
	t.mu.Unlock()
}

// ServerTiming renders the spans recorded so far as a Server-Timing header
// value (durations in milliseconds, per the spec), always including a
// total of the elapsed request time so the header is never empty. Span
// names are sanitized to valid header tokens.
func (t *Trace) ServerTiming() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	for _, s := range t.spans {
		fmt.Fprintf(&b, "%s;dur=%.3f, ", timingToken(s.Name), float64(s.DurNS)/1e6)
	}
	fmt.Fprintf(&b, "total;dur=%.3f", float64(time.Since(t.start).Nanoseconds())/1e6)
	return b.String()
}

// timingToken maps a span name to an RFC 9110 token (Server-Timing metric
// names may not contain separators).
func timingToken(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '-'
		}
	}, name)
}

// TraceView is the JSON snapshot of one trace, newest-first in ring
// snapshots.
type TraceView struct {
	ID        string `json:"id"`
	Endpoint  string `json:"endpoint"`
	Method    string `json:"method"`
	Path      string `json:"path"`
	Status    int    `json:"status,omitempty"`
	StartUnix int64  `json:"start_unix_nano"`
	DurNS     int64  `json:"dur_ns"`
	Spans     []Span `json:"spans,omitempty"`
}

func (t *Trace) view() TraceView {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := TraceView{
		ID:        t.id,
		Endpoint:  t.endpoint,
		Method:    t.method,
		Path:      t.path,
		Status:    t.status,
		StartUnix: t.start.UnixNano(),
		DurNS:     t.durNS,
		Spans:     make([]Span, len(t.spans)),
	}
	copy(v.Spans, t.spans)
	return v
}

// TraceRing retains the last N finished traces in a fixed ring buffer.
// Recording overwrites the oldest entry; Snapshot copies, so holding a
// snapshot never pins the ring.
type TraceRing struct {
	mu    sync.Mutex
	buf   []*Trace
	next  int
	total int64
}

// NewTraceRing returns a ring retaining up to n traces (minimum 1).
func NewTraceRing(n int) *TraceRing {
	if n < 1 {
		n = 1
	}
	return &TraceRing{buf: make([]*Trace, n)}
}

// Add inserts a trace, evicting the oldest when full. Nil traces are
// ignored so callers need not branch.
func (r *TraceRing) Add(t *Trace) {
	if t == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	r.total++
	r.mu.Unlock()
}

// Total returns how many traces have ever been added (eviction included).
func (r *TraceRing) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot returns the retained traces newest-first.
func (r *TraceRing) Snapshot() []TraceView {
	r.mu.Lock()
	traces := make([]*Trace, 0, len(r.buf))
	for i := 1; i <= len(r.buf); i++ {
		// Walk backwards from the most recent insertion point.
		t := r.buf[(r.next-i+len(r.buf))%len(r.buf)]
		if t != nil {
			traces = append(traces, t)
		}
	}
	r.mu.Unlock()
	out := make([]TraceView, len(traces))
	for i, t := range traces {
		out[i] = t.view()
	}
	return out
}

// NewRequestID returns a 16-hex-character random request ID, the
// correlation key between access logs, traces and response headers.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}

type traceKey struct{}

// WithTrace attaches a trace to the context for downstream stages.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFromContext returns the request's trace, or nil (every Trace method
// is nil-safe, so callers instrument unconditionally).
func TraceFromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
