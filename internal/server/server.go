// Package server turns the schedulability engine into a long-running
// service: an HTTP JSON API over the same pure Test(taskset, method)
// function the library and CLI expose.
//
// # Architecture
//
// The layering is engine → pool → server:
//
//   - internal/analysis remains the single source of verdicts; the server
//     never reimplements any analysis.
//   - internal/experiments.ParallelFor is the only scheduling primitive:
//     batch fan-out and grid sweeps drain through it, exactly like the
//     CLI's grids and the audit.
//   - This package adds the service concerns on top: canonical
//     content-addressed caching (model.Taskset.Hash), request coalescing
//     (singleflight), bounded admission with backpressure (429 when the
//     job queue is full), structured 4xx errors for hostile input, and
//     metrics.
//
// Because Test is a pure deterministic function of the canonical taskset,
// identical requests — byte-identical or merely semantically identical —
// are served from the sharded LRU result cache, and N concurrent identical
// misses cost exactly one analysis.
//
// # Endpoints
//
//	POST /v1/analyze        one taskset, one or all methods
//	POST /v1/analyze/batch  many tasksets, shared options
//	POST /v1/analyze/delta  what-if query: base hash + patch, answered
//	                        incrementally from retained delta state
//	GET  /v1/grid           streaming acceptance-curve points (NDJSON)
//	POST /v1/sweeps         submit an asynchronous multi-scenario sweep job
//	GET  /v1/sweeps         list sweep jobs
//	GET  /v1/sweeps/{id}    sweep-job progress
//	GET  /v1/sweeps/{id}/results  completed acceptance curves
//	DELETE /v1/sweeps/{id}  cancel and forget a sweep job
//	GET  /v1/metrics        cache/coalescing/admission/store counters (JSON)
//	GET  /metrics           the same state as Prometheus text exposition,
//	                        plus request/stage latency histograms
//	GET  /v1/debug/traces   recent per-request trace spans, newest first
//	GET  /healthz           liveness (200 even when degraded; see body)
//
// # Observability
//
// Every request is traced: a generated request ID is echoed as
// X-Request-ID, per-phase spans (cache probe, singleflight wait, store
// read, analysis) are captured into a bounded ring served by
// GET /v1/debug/traces and summarized in a Server-Timing response header.
// Latencies feed lock-free fixed-bucket histograms — per endpoint, per
// analysis, and per pipeline stage (view enumeration, fixed-point
// iteration, partition rounds) via allocation-free scratch hooks — all
// exported at GET /metrics in Prometheus text format. Structured logs
// (Config.Logger) carry the request ID plus sweep-job lifecycle and
// store degraded-mode transitions; access logging is sampled
// (Config.AccessLogEvery).
//
// # Deadlines and cancellation
//
// Every handler threads its request context through the engine: a client
// that disconnects while its analysis is queued frees its worker slot and
// queue claim immediately (counted in the canceled metric), and an
// explicit budget — the server-wide Config.RequestTimeout or a request's
// timeout_ms field, whichever is tighter — turns an overrunning analysis
// into a structured 503 timeout verdict instead of an open-ended wait.
// Coalesced waiters abandon without cancelling the shared computation, so
// the result still lands in the cache for the next caller.
//
// # Durability
//
// With Config.StoreDir set, results write through to an on-disk
// content-addressed store (internal/store) and sweep jobs checkpoint their
// per-point progress, so a restarted daemon keeps its cache warm and
// resumes unfinished sweeps instead of dropping them (see jobs.go). Store
// access sits behind a circuit breaker: a failing disk opens it after
// Config.StoreBreakerThreshold consecutive errors, requests skip the disk
// and recompute (degraded mode, surfaced via /healthz and /v1/metrics),
// and a periodic probe closes it when the disk recovers.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"dpcpp/internal/analysis"
	"dpcpp/internal/experiments"
	"dpcpp/internal/model"
	"dpcpp/internal/obs"
	"dpcpp/internal/store"
)

// Defaults applied by Config.normalized.
const (
	DefaultCacheSize = 4096
	DefaultMaxBody   = 8 << 20 // 8 MiB of taskset JSON
	// DefaultBreakerThreshold is the consecutive store failures that open
	// the circuit breaker; DefaultBreakerProbe how often an open breaker
	// admits one recovery probe.
	DefaultBreakerThreshold = 8
	DefaultBreakerProbe     = 5 * time.Second
	// DefaultWriteDeadline is the per-write-operation deadline applied via
	// http.ResponseController: each response write (and each NDJSON line
	// of a stream) must complete within it, so a stalled reader cannot pin
	// a connection while arbitrarily long streams stay alive as long as
	// they make progress.
	DefaultWriteDeadline = time.Minute
)

// Config tunes a Server.
type Config struct {
	// Workers bounds concurrently executing analyses (<= 0 = GOMAXPROCS).
	Workers int
	// CacheSize is the result cache capacity in entries (<= 0 = 4096).
	CacheSize int
	// MaxBody caps request bodies in bytes (<= 0 = 8 MiB); larger bodies
	// get 413 before any decoding work.
	MaxBody int64
	// MaxQueue bounds admitted-but-unfinished analysis jobs. A request
	// whose jobs cannot fit while the server is busy gets 429 +
	// Retry-After; one that could never fit even on an idle server gets a
	// non-retryable 400 (<= 0 = max(1024 * workers, 65536), large enough
	// that every documented grid/batch request fits on a 1-core host).
	MaxQueue int
	// RequestTimeout bounds the analysis latency of one /v1/analyze or
	// /v1/analyze/batch request; past it the request gets a structured 503
	// timeout verdict and its queued work is abandoned. 0 disables the
	// server-wide bound (a request's timeout_ms still applies).
	RequestTimeout time.Duration
	// WriteDeadline is the per-write deadline for response writes
	// (<= 0 = 1 minute); see DefaultWriteDeadline.
	WriteDeadline time.Duration
	// StoreDir, when non-empty, roots the persistent layer: an on-disk
	// content-addressed result store backing the in-memory LRU, plus the
	// sweep-job checkpoints under StoreDir/jobs. Empty disables
	// persistence (results live only in the LRU, sweep jobs only in
	// memory).
	StoreDir string
	// DisableResume skips re-starting unfinished checkpointed sweep jobs
	// found in StoreDir/jobs at startup (they remain listed, paused, until
	// a daemon with resume enabled picks them up).
	DisableResume bool
	// StoreBreakerThreshold is the consecutive store failures that open
	// the store circuit breaker (<= 0 = 8); StoreBreakerProbe is the
	// interval between recovery probes while open (<= 0 = 5s).
	StoreBreakerThreshold int
	StoreBreakerProbe     time.Duration
	// DisableCheckpointSync turns off the fsync on sweep-job checkpoint
	// writes. Cache entries never sync (they are recomputable); checkpoint
	// sync is on by default because losing a checkpoint discards progress.
	DisableCheckpointSync bool
	// FaultWrites > 0 makes the store's first FaultWrites writes fail with
	// a synthetic I/O error — built-in fault injection for chaos and smoke
	// testing of degraded mode through the real binary. Never set it in
	// production.
	FaultWrites int
	// Logger receives the server's structured logs (request access lines,
	// sweep-job lifecycle, degraded-mode transitions). Nil discards them —
	// the server never writes to a default destination on its own.
	Logger *slog.Logger
	// AccessLogEvery samples the access log: every N-th completed request
	// emits one structured line on Logger. 0 (the default) disables access
	// logging; 1 logs every request.
	AccessLogEvery int
	// TraceBuffer is the capacity of the request-trace ring behind
	// GET /v1/debug/traces (<= 0 = 256).
	TraceBuffer int

	// storeHooks, when non-nil, is installed on the opened store before
	// any checkpoint is read or written; the chaos suite schedules faults
	// through it (package-internal, tests only).
	storeHooks *store.Hooks
}

func (c Config) normalized() Config {
	c.Workers = experiments.Workers(c.Workers)
	if c.CacheSize <= 0 {
		c.CacheSize = DefaultCacheSize
	}
	if c.MaxBody <= 0 {
		c.MaxBody = DefaultMaxBody
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 1024 * c.Workers
		if c.MaxQueue < 65536 {
			c.MaxQueue = 65536
		}
	}
	if c.WriteDeadline <= 0 {
		c.WriteDeadline = DefaultWriteDeadline
	}
	if c.StoreBreakerThreshold <= 0 {
		c.StoreBreakerThreshold = DefaultBreakerThreshold
	}
	if c.StoreBreakerProbe <= 0 {
		c.StoreBreakerProbe = DefaultBreakerProbe
	}
	return c
}

// fastResponse is one exact-body cache entry: the serialized response plus
// how many method results it carries, so fast-path hit accounting matches
// cachedAll (one cache hit per method, not per request).
type fastResponse struct {
	body    []byte
	methods int
}

// Server is the http.Handler exposing the analysis service.
type Server struct {
	cfg    Config
	engine *engine
	mux    *http.ServeMux
	jobs   *jobRegistry
	// fast serves byte-identical repeats of /v1/analyze bodies without
	// decoding, validating or hashing the taskset again: the stored
	// response keyed by the SHA-256 of the raw body. Real fleets re-submit
	// literally identical requests, and the response is a pure function of
	// the body, so this is safe and turns the hit path into a hash plus a
	// write.
	fast *lru[fastResponse]
	// obs is the observability layer: base logger, Prometheus registry,
	// request-trace ring and per-endpoint latency histograms (see obs.go).
	obs *serverObs
}

// New builds a Server. It is ready to serve immediately; wire it into an
// http.Server for listening and graceful shutdown (see cmd/schedd). With
// cfg.StoreDir set, it opens the persistent result store and loads
// checkpointed sweep jobs, resuming unfinished ones unless
// cfg.DisableResume is set. Call Close on shutdown to checkpoint and stop
// the sweep runner.
func New(cfg Config) (*Server, error) {
	cfg = cfg.normalized()
	var st *store.Store
	var br *store.Breaker
	if cfg.StoreDir != "" {
		var err error
		if st, err = store.Open(cfg.StoreDir); err != nil {
			return nil, err
		}
		switch {
		case cfg.storeHooks != nil:
			st.SetHooks(cfg.storeHooks)
		case cfg.FaultWrites > 0:
			st.SetHooks(failFirstWrites(cfg.FaultWrites))
		}
		br = store.NewBreaker(cfg.StoreBreakerThreshold, cfg.StoreBreakerProbe)
	}
	s := &Server{
		cfg:    cfg,
		engine: newEngine(cfg.Workers, cfg.CacheSize, int64(cfg.MaxQueue), st, br),
		mux:    http.NewServeMux(),
		fast:   newLRU[fastResponse](cfg.CacheSize),
		obs:    newServerObs(cfg.Logger, cfg.AccessLogEvery, cfg.TraceBuffer),
	}
	if br != nil {
		s.observeBreaker(br)
	}
	var err error
	if s.jobs, err = newJobRegistry(s, st); err != nil {
		return nil, err
	}
	s.registerMetrics()
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /v1/analyze/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/analyze/delta", s.handleDelta)
	s.mux.HandleFunc("GET /v1/grid", s.handleGrid)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	s.mux.HandleFunc("GET /v1/sweeps", s.handleSweepList)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepStatus)
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleSweepDelete)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/results", s.handleSweepResults)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics", s.handlePromMetrics)
	s.mux.HandleFunc("GET /v1/debug/traces", s.handleTraces)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s, nil
}

// failFirstWrites builds the Config.FaultWrites hook: the first n atomic
// writes fail with a synthetic EIO-style error, later ones succeed.
func failFirstWrites(n int) *store.Hooks {
	var mu sync.Mutex
	left := n
	return &store.Hooks{BeforeWrite: func(path string) error {
		mu.Lock()
		defer mu.Unlock()
		if left > 0 {
			left--
			return fmt.Errorf("injected write fault (%s): input/output error", path)
		}
		return nil
	}}
}

// Close stops the sweep-job runner: the in-flight job stops at its next
// point boundary, its progress is checkpointed (when a store is
// configured), and Close returns once the runner has exited and every
// analysis its callers abandoned has finished, so nothing the server
// started still writes to the store. In-flight HTTP requests are the
// http.Server's to drain, not Close's.
func (s *Server) Close() {
	s.jobs.close()
	s.engine.flight.wait()
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Body != nil {
		// The body cap is the first hardening layer: nothing past it ever
		// reaches the JSON decoder, and oversized bodies fail with a
		// structured 413 instead of feeding the model layer unbounded
		// input.
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	}
	// One write deadline covers simple JSON responses; streaming handlers
	// re-arm it per line so long streams stay alive while a stalled reader
	// still cannot pin the connection (http.Server.WriteTimeout would kill
	// both).
	s.bumpWriteDeadline(w)
	s.observe(w, r)
}

// bumpWriteDeadline extends the connection's write deadline by the
// configured per-write budget. Unsupported writers (httptest recorders,
// some middleware) are fine: the deadline is a hardening layer, not a
// correctness dependency.
func (s *Server) bumpWriteDeadline(w http.ResponseWriter) {
	if s.cfg.WriteDeadline <= 0 {
		return
	}
	rc := http.NewResponseController(w)
	_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.WriteDeadline))
}

// Metrics returns a snapshot of the service counters.
func (s *Server) Metrics() Metrics {
	m := s.engine.snapshot()
	s.jobs.fill(&m)
	return m
}

// healthResponse is the body of GET /healthz. The endpoint stays 200 even
// in degraded mode — the process is alive and serving; Degraded tells
// operators (and load balancers that read bodies) that the persistent
// store is being bypassed and durability is reduced.
type healthResponse struct {
	OK         bool   `json:"ok"`
	Degraded   bool   `json:"degraded,omitempty"`
	StoreState string `json:"store_state,omitempty"`
	// Build identifies the serving binary (module version, VCS revision,
	// Go toolchain), so operators can tell which build answered.
	Build obs.Build `json:"build"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.engine.br.State()
	writeJSON(w, http.StatusOK, healthResponse{
		OK:         true,
		Degraded:   st == store.BreakerOpen || st == store.BreakerHalfOpen,
		StoreState: st,
		Build:      obs.BuildInfo(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

// requestCtx derives the analysis context of one request: the client's
// context (so a disconnect cancels queued work) bounded by the tighter of
// the server-wide RequestTimeout and the request's own timeout_ms.
func (s *Server) requestCtx(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.RequestTimeout
	if timeoutMS > 0 {
		if req := time.Duration(timeoutMS) * time.Millisecond; d <= 0 || req < d {
			d = req
		}
	}
	if d <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), d)
}

// finishAnalysis maps an aborted analysis to its response: a deadline
// overrun gets the structured 503 timeout verdict; a vanished client gets
// nothing (there is no one to write to). Reports whether the handler
// should continue with a successful response.
func (s *Server) finishAnalysis(w http.ResponseWriter, err error) bool {
	if err == nil {
		return true
	}
	if errors.Is(err, context.DeadlineExceeded) {
		s.writeTimeout(w)
	}
	return false
}

// decodeBody decodes one JSON document into dst with the request-boundary
// hardening: the MaxBytesReader cap (413), unknown-field rejection and a
// single-document requirement (400). The taskset itself is then validated
// by model.Finalize, which is hardened against hostile documents — no
// panic path is reachable from a request body.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) error {
	return writeDecodeError(w, decodeStrict(r.Body, dst))
}

// decodeBytes is decodeBody for a pre-read body (the /v1/analyze fast
// path reads the body up front to key the exact-body cache).
func decodeBytes(w http.ResponseWriter, body []byte, dst any) error {
	return writeDecodeError(w, decodeStrict(bytes.NewReader(body), dst))
}

var errTrailingData = errors.New("trailing data after JSON document")

// decodeStrict decodes exactly one JSON document from r into dst: unknown
// fields are errors, and anything but whitespace after the document —
// a second document or a stray closing bracket alike — is trailing data.
func decodeStrict(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case errors.As(err, new(*http.MaxBytesError)):
		return err
	}
	return errTrailingData
}

// writeDecodeError writes the structured 4xx for a decodeStrict error and
// passes the error through.
func writeDecodeError(w http.ResponseWriter, err error) error {
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge,
			"request body exceeds %d bytes", tooLarge.Limit)
	case errors.Is(err, errTrailingData):
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "malformed request: %v", err)
	}
	return err
}

// analyzeKeys are the /v1/analyze envelope's wire keys, in the order of
// decodeAnalyze's switch.
var analyzeKeys = []string{"taskset", "methods", "path_cap", "placement", "explain", "timeout_ms"}

// decodeAnalyze decodes a canonical /v1/analyze body in one pass with
// model.Decoder. It reports false when the decoder declines, and the
// caller then decodes the same bytes with decodeBytes, which decides
// acceptance and error text; on every body the decoder accepts, the two
// produce equal requests (FuzzAnalyzeBody).
func decodeAnalyze(body []byte) (*AnalyzeRequest, bool) {
	d := model.NewDecoder(body)
	defer d.Release()
	req := new(AnalyzeRequest)
	if !d.Object() {
		return nil, false
	}
	var seen uint32
	for {
		switch d.Field(analyzeKeys, &seen) {
		case 0:
			if !d.Null() {
				req.Taskset = d.Taskset()
			}
		case 1:
			req.Methods = d.Strings()
		case 2:
			req.PathCap = d.Int()
		case 3:
			req.Placement = d.String()
		case 4:
			req.Explain = d.Bool()
		case 5:
			req.TimeoutMS = d.Int64()
		default:
			return req, d.End()
		}
	}
}

// bodyPool recycles /v1/analyze body buffers. A body never outlives its
// handler: the exact-body cache keys on its SHA-256, and both decoders
// copy every string they keep.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody is the largest buffer returned to bodyPool, so one huge
// body does not stay pinned by the pool.
const maxPooledBody = 1 << 20

// maxBodyPresize caps how much of a declared Content-Length readBody
// allocates before the bytes arrive. The header is the client's word, so
// past this the buffer grows only as data is read, as io.ReadAll's does.
const maxBodyPresize = 64 << 10

// readBody reads the request body into a pooled buffer. A Content-Length
// up to maxBodyPresize sizes the buffer once, with a spare byte so the
// read that sees EOF needs no growth. Return the buffer with putBody.
func readBody(r *http.Request, limit int64) (*[]byte, error) {
	bp := bodyPool.Get().(*[]byte)
	b := (*bp)[:0]
	if n := r.ContentLength; n >= 0 {
		b = slices.Grow(b, int(min(n, limit, maxBodyPresize))+1)
	}
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, 512)
		}
		n, err := r.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			*bp = b
			if err == io.EOF {
				err = nil
			}
			return bp, err
		}
	}
}

func putBody(bp *[]byte) {
	if cap(*bp) <= maxPooledBody {
		bodyPool.Put(bp)
	}
}

// finalizeTaskset validates a decoded taskset, translating model's
// rejection into a structured 400 with the taskset's batch position.
func finalizeTaskset(w http.ResponseWriter, ts *model.Taskset, pos string) bool {
	if ts == nil {
		writeError(w, http.StatusBadRequest, "missing taskset%s", pos)
		return false
	}
	if err := ts.Finalize(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid taskset%s: %v", pos, err)
		return false
	}
	return true
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.engine.requests.Add(1)
	tr := obs.TraceFromContext(r.Context())
	bodyKey, req, ok := s.readAnalyze(w, r, tr)
	if !ok {
		return
	}
	ms, opts, ok := s.validateOptions(w, analysis.ParseMethods, req.Methods, req.PathCap, req.Placement)
	if !ok {
		return
	}
	start := time.Now()
	if !finalizeTaskset(w, req.Taskset, "") {
		return
	}
	tr.AddSpan("finalize", start)
	start = time.Now()
	h := req.Taskset.Hash()
	tr.AddSpan("hash", start)
	resp := &AnalyzeResponse{Hash: h.String()}
	// A fully-cached request needs zero analysis work, so it is served
	// even when the admission queue is saturated.
	if resp.Results = s.engine.cachedAll(h, ms, opts, req.Explain); resp.Results == nil {
		if !s.admit(w, len(ms)) {
			return
		}
		defer s.engine.release(len(ms))
		ctx, cancel := s.requestCtx(r, req.TimeoutMS)
		defer cancel()
		var err error
		resp, err = s.analyzeOne(ctx, h, req.Taskset, ms, opts, req.Explain)
		if !s.finishAnalysis(w, err) {
			return
		}
	}

	start = time.Now()
	b, err := json.Marshal(resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	// The exact-body cache keeps out, so size it exactly; appending the
	// newline (json.Encoder's framing, used everywhere else) to b would
	// leave a quarter or more of every cached response as spare capacity.
	out := make([]byte, len(b)+1)
	out[copy(out, b)] = '\n'
	tr.AddSpan("encode", start)
	s.fast.add(string(bodyKey[:]), fastResponse{body: out, methods: len(ms)})
	w.Header().Set("Content-Type", "application/json")
	w.Write(out)
}

// readAnalyze reads and decodes one /v1/analyze body, or answers it from
// the exact-body cache; false means the response is already written. The
// pooled body buffer goes back before the analysis queues for a worker,
// so the pool holds about one buffer per handler still reading, not one
// per request waiting for an analysis.
func (s *Server) readAnalyze(w http.ResponseWriter, r *http.Request, tr *obs.Trace) (
	bodyKey [sha256.Size]byte, req *AnalyzeRequest, ok bool) {

	start := time.Now()
	bp, err := readBody(r, s.cfg.MaxBody)
	defer putBody(bp)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooLarge.Limit)
		} else {
			writeError(w, http.StatusBadRequest, "reading request: %v", err)
		}
		return bodyKey, nil, false
	}
	body := *bp
	bodyKey = sha256.Sum256(body)
	tr.AddSpan("read", start)
	if resp, hit := s.fast.get(string(bodyKey[:])); hit {
		// One hit per method result served, exactly like cachedAll: the
		// fast path is an optimization of the cached path, not a separate
		// accounting regime.
		s.engine.cacheHits.Add(int64(resp.methods))
		w.Header().Set("Content-Type", "application/json")
		w.Write(resp.body)
		return bodyKey, nil, false
	}

	start = time.Now()
	if req, ok = decodeAnalyze(body); !ok {
		req = new(AnalyzeRequest)
		if decodeBytes(w, body, req) != nil {
			return bodyKey, nil, false
		}
	}
	tr.AddSpan("decode", start)
	return bodyKey, req, true
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.engine.requests.Add(1)
	var req BatchRequest
	if decodeBody(w, r, &req) != nil {
		return
	}
	ms, opts, ok := s.validateOptions(w, analysis.ParseMethods, req.Methods, req.PathCap, req.Placement)
	if !ok {
		return
	}
	if len(req.Tasksets) == 0 {
		writeError(w, http.StatusBadRequest, "empty tasksets")
		return
	}
	for i, ts := range req.Tasksets {
		if !finalizeTaskset(w, ts, fmt.Sprintf(" at index %d", i)) {
			return
		}
	}
	jobs := len(req.Tasksets) * len(ms)
	if !s.admit(w, jobs) {
		return
	}
	defer s.engine.release(jobs)
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()

	// Hash on the request goroutine (cheap), fan the analyses out over the
	// shared pool primitive. Results land in per-index slots, so no
	// locking and a deterministic response order.
	resp := BatchResponse{Results: make([]*AnalyzeResponse, len(req.Tasksets))}
	hashes := make([]model.Hash, len(req.Tasksets))
	for i, ts := range req.Tasksets {
		hashes[i] = ts.Hash()
		resp.Results[i] = &AnalyzeResponse{
			Hash:    hashes[i].String(),
			Results: make(map[string]*MethodResult, len(ms)),
		}
	}
	var mu sync.Mutex // guards the per-taskset result maps and firstErr
	var firstErr error
	experiments.ParallelFor(s.cfg.Workers, jobs, func(_, idx int) {
		// A dead client stops admitting new analyses; already-drained jobs
		// keep their results, the remainder drains cheaply.
		if ctx.Err() != nil {
			return
		}
		ti, mi := idx/len(ms), idx%len(ms)
		mr, err := s.engine.analyze(ctx, hashes[ti], req.Tasksets[ti], ms[mi], opts, false)
		mu.Lock()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
		} else {
			resp.Results[ti].Results[string(ms[mi])] = mr
		}
		mu.Unlock()
	})
	if firstErr == nil && ctx.Err() != nil {
		firstErr = ctx.Err()
	}
	if !s.finishAnalysis(w, firstErr) {
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// analyzeOne runs the methods for one finalized, hashed taskset, fanning
// out over the pool when more than one method was requested. The first
// context error aborts the response (partial results are never served).
func (s *Server) analyzeOne(ctx context.Context, h model.Hash, ts *model.Taskset,
	ms []analysis.Method, opts analysis.Options, explain bool) (*AnalyzeResponse, error) {

	resp := &AnalyzeResponse{
		Hash:    h.String(),
		Results: make(map[string]*MethodResult, len(ms)),
	}
	results := make([]*MethodResult, len(ms))
	errs := make([]error, len(ms))
	experiments.ParallelFor(len(ms), len(ms), func(_, i int) {
		results[i], errs[i] = s.engine.analyze(ctx, h, ts, ms[i], opts, explain)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i, m := range ms {
		resp.Results[string(m)] = results[i]
	}
	return resp, nil
}

// validateOptions resolves methods (through parseMethods), path cap and
// placement, writing a 400 on the first invalid field. Every analysis
// endpoint validates its options here.
func (s *Server) validateOptions(w http.ResponseWriter, parseMethods func([]string) ([]analysis.Method, error),
	methods []string, pathCap int, placement string) ([]analysis.Method, analysis.Options, bool) {

	ms, err := parseMethods(methods)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, analysis.Options{}, false
	}
	if pathCap < 0 {
		writeError(w, http.StatusBadRequest, "negative path_cap %d", pathCap)
		return nil, analysis.Options{}, false
	}
	pl, err := parsePlacement(placement)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, analysis.Options{}, false
	}
	return ms, analysis.Options{PathCap: pathCap, Placement: pl}, true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v) // nothing useful to do on a client that went away
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...), Code: code})
}

// writeTimeout emits the structured 503 timeout verdict: the analysis
// overran its deadline and was abandoned; its work, if it had started,
// still lands in the cache. Retry-After reflects the observed backlog
// (queue depth times recent analysis latency) rather than a fixed second,
// so clients back off in proportion to actual load.
func (s *Server) writeTimeout(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(s.engine.retryAfterSeconds()))
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{
		Error:   "analysis deadline exceeded; retry may hit the cache",
		Code:    http.StatusServiceUnavailable,
		Timeout: true,
	})
}

// admit reserves n analysis jobs, writing the appropriate rejection when
// they do not fit: a request that could never fit (n exceeds the queue
// bound outright) gets a non-retryable 400, while a transient full queue
// gets the backpressure 429 + Retry-After.
func (s *Server) admit(w http.ResponseWriter, n int) bool {
	if n > s.cfg.MaxQueue {
		writeError(w, http.StatusBadRequest,
			"request requires %d analysis jobs, above the server's queue capacity %d; reduce n/batch size or raise -max-queue",
			n, s.cfg.MaxQueue)
		return false
	}
	if !s.engine.tryAdmit(n) {
		w.Header().Set("Retry-After", strconv.Itoa(s.engine.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, "analysis queue full, retry later")
		return false
	}
	return true
}
