package server

import (
	"context"
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"dpcpp/internal/analysis"
	"dpcpp/internal/obs"
	"dpcpp/internal/store"
)

// DefaultTraceBuffer is the request-trace ring capacity (Config.TraceBuffer).
const DefaultTraceBuffer = 256

// obsEndpoints is the closed set of endpoint labels for the per-endpoint
// request-latency histograms. A closed set keeps the label space bounded —
// a scanner probing random paths lands in "other" instead of minting one
// time series per probe.
var obsEndpoints = []string{
	"analyze", "batch", "delta", "grid", "sweeps", "metrics", "healthz", "traces", "other",
}

// classifyEndpoint maps a request path onto the closed endpoint label set.
func classifyEndpoint(path string) string {
	switch {
	case path == "/v1/analyze":
		return "analyze"
	case path == "/v1/analyze/batch":
		return "batch"
	case path == "/v1/analyze/delta":
		return "delta"
	case path == "/v1/grid":
		return "grid"
	case path == "/v1/sweeps" || strings.HasPrefix(path, "/v1/sweeps/"):
		return "sweeps"
	case path == "/v1/metrics" || path == "/metrics":
		return "metrics"
	case path == "/healthz":
		return "healthz"
	case path == "/v1/debug/traces":
		return "traces"
	default:
		return "other"
	}
}

// serverObs bundles one Server's observability state: the base logger,
// the Prometheus registry, the trace ring, and the per-endpoint latency
// histograms.
type serverObs struct {
	log  *slog.Logger
	reg  *obs.Registry
	ring *obs.TraceRing
	// perEndpoint holds one request-latency histogram per obsEndpoints
	// entry; built once in newServerObs and read-only afterwards, so
	// lookups need no locking.
	perEndpoint map[string]*obs.Histogram
	// accessEvery samples the access log: every accessEvery-th completed
	// request (by the accessN counter) emits one line. 0 disables.
	accessEvery int64
	accessN     atomic.Int64
}

func newServerObs(logger *slog.Logger, accessEvery int, traceBuffer int) *serverObs {
	if logger == nil {
		logger = obs.NopLogger()
	}
	if traceBuffer <= 0 {
		traceBuffer = DefaultTraceBuffer
	}
	o := &serverObs{
		log:         logger,
		reg:         obs.NewRegistry(),
		ring:        obs.NewTraceRing(traceBuffer),
		perEndpoint: make(map[string]*obs.Histogram, len(obsEndpoints)),
		accessEvery: int64(accessEvery),
	}
	for _, ep := range obsEndpoints {
		o.perEndpoint[ep] = obs.NewHistogram(obs.DefaultLatencyBounds())
	}
	return o
}

// registerMetrics populates the Prometheus registry from the engine's and
// registry's live counters. Registration order is exposition order.
func (s *Server) registerMetrics() {
	e, j, r := s.engine, s.jobs, s.obs.reg

	r.Counter("schedd_requests_total",
		"Analysis-bearing requests (analyze, batch, grid, sweep submissions).",
		e.requests.Load)
	r.Counter("schedd_analyses_total",
		"Analyses actually executed (cache and store misses).", e.analyses.Load)
	r.Counter("schedd_cache_hits_total",
		"Result-cache hits, one per method result served.", e.cacheHits.Load)
	r.Counter("schedd_cache_misses_total",
		"Result-cache misses.", e.cacheMisses.Load)
	r.Counter("schedd_coalesced_total",
		"Requests coalesced onto another caller's in-flight analysis.", e.coalesced.Load)
	r.Counter("schedd_delta_hits_total",
		"Delta queries answered from retained incremental state.", e.deltaHits.Load)
	r.Counter("schedd_delta_fallbacks_total",
		"Delta queries that rebuilt base state with a full analysis.", e.deltaFallbacks.Load)
	r.Counter("schedd_rejected_total",
		"Requests rejected by admission control (429).", e.rejected.Load)
	r.Counter("schedd_canceled_total",
		"Analyses abandoned because the client went away.", e.canceled.Load)
	r.Counter("schedd_deadline_exceeded_total",
		"Analyses cut off by a request deadline.", e.deadlines.Load)
	r.Counter("schedd_store_hits_total",
		"Persistent-store result hits.", e.storeHits.Load)
	r.Counter("schedd_store_puts_total",
		"Results persisted to the store.", e.storePuts.Load)
	r.Counter("schedd_store_errors_total",
		"Store failures (degraded to recomputation, never to request failures).",
		e.storeErrors.Load)
	r.Counter("schedd_store_breaker_trips_total",
		"Times the store circuit breaker opened.", e.br.Trips)
	r.Counter("schedd_sweeps_submitted_total",
		"Sweep jobs submitted.", j.submitted.Load)
	r.Counter("schedd_sweeps_completed_total",
		"Sweep jobs run to completion.", j.completed.Load)

	r.Gauge("schedd_workers",
		"Configured analysis worker slots.",
		func() float64 { return float64(e.workers) })
	r.Gauge("schedd_inflight_analyses",
		"Analyses executing right now (occupied worker slots).",
		func() float64 { return float64(len(e.slots)) })
	r.Gauge("schedd_queue_depth",
		"Admitted-but-unfinished analysis jobs.",
		func() float64 { return float64(e.queued.Load()) })
	r.Gauge("schedd_cache_entries",
		"Entries in the in-memory result cache.",
		func() float64 { return float64(e.cache.entries()) })
	r.Gauge("schedd_delta_states",
		"Retained incremental delta states (bounded LRU).",
		func() float64 { return float64(e.deltaStates.entries()) })
	r.Gauge("schedd_sweeps_active",
		"Sweep jobs running or queued for the runner.",
		func() float64 { return float64(j.active.Load() + int64(len(j.queue))) })
	for _, state := range []string{store.BreakerClosed, store.BreakerOpen, store.BreakerHalfOpen} {
		state := state
		r.GaugeL("schedd_store_breaker_state", obs.Labels("state", state),
			"Store circuit-breaker state (1 for the current state, 0 otherwise; all 0 without a store).",
			func() float64 {
				if e.br.State() == state {
					return 1
				}
				return 0
			})
	}

	for _, ep := range obsEndpoints {
		r.HistogramL("schedd_request_duration_seconds", obs.Labels("endpoint", ep),
			"HTTP request latency by endpoint.", s.obs.perEndpoint[ep])
	}
	r.Histogram("schedd_analysis_duration_seconds",
		"Wall time of executed analyses (cache misses only).", e.latency)
	for st := analysis.Stage(0); st < analysis.NumStages; st++ {
		r.HistogramL("schedd_analysis_stage_duration_seconds", obs.Labels("stage", st.String()),
			"Per-stage analysis pipeline timing (views, fixpoint, round).", e.stages.h[st])
	}
}

// obsResponseWriter observes one response: it captures the status code and
// injects the trace's Server-Timing header at the last possible moment —
// the first header flush — so every span recorded during the handler makes
// it into the header. Flush and Unwrap forward so NDJSON streaming
// (http.Flusher) and per-write deadlines (http.ResponseController) keep
// working through the wrapper.
type obsResponseWriter struct {
	http.ResponseWriter
	tr     *obs.Trace
	status int
	wrote  bool
}

func (w *obsResponseWriter) WriteHeader(code int) {
	if !w.wrote {
		w.wrote = true
		w.status = code
		w.Header().Set("Server-Timing", w.tr.ServerTiming())
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *obsResponseWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

func (w *obsResponseWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

//schedlint:ignore unused http.ResponseController calls it through an interface declared inside its methods
func (w *obsResponseWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// observe wraps the mux dispatch with the request-observability
// middleware: a generated request ID (echoed as X-Request-ID), a trace in
// the ring with a request-scoped logger carried through the context, the
// per-endpoint latency histogram, and the sampled access log.
func (s *Server) observe(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ep := classifyEndpoint(r.URL.Path)
	id := obs.NewRequestID()
	tr := obs.NewTrace(id, ep, r.Method, r.URL.Path, start)
	s.obs.ring.Add(tr)
	reqLog := s.obs.log.With("req_id", id)
	ctx := obs.WithLogger(obs.WithTrace(r.Context(), tr), reqLog)

	ow := &obsResponseWriter{ResponseWriter: w, tr: tr}
	ow.Header().Set("X-Request-ID", id)
	s.mux.ServeHTTP(ow, r.WithContext(ctx))

	status := ow.status
	if status == 0 { // handler never wrote; net/http sends 200
		status = http.StatusOK
	}
	d := time.Since(start)
	tr.Finish(status)
	s.obs.perEndpoint[ep].Observe(d)
	if every := s.obs.accessEvery; every > 0 && s.obs.accessN.Add(1)%every == 0 {
		reqLog.LogAttrs(ctx, slog.LevelInfo, "request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("endpoint", ep),
			slog.Int("status", status),
			slog.Duration("duration", d),
		)
	}
}

// observeBreaker wires the store circuit breaker's transitions into the
// structured log: entering the open state is degraded-mode entry (warn),
// returning to closed is recovery (info), probe admissions are debug.
func (s *Server) observeBreaker(br *store.Breaker) {
	log := s.obs.log
	br.OnTransition(func(from, to string) {
		ctx := context.Background()
		switch to {
		case store.BreakerOpen:
			if from == store.BreakerClosed {
				log.LogAttrs(ctx, slog.LevelWarn, "store degraded: breaker opened, bypassing store",
					slog.String("from", from), slog.Int64("trips", br.Trips()))
			} else {
				log.LogAttrs(ctx, slog.LevelWarn, "store probe failed, breaker re-opened",
					slog.String("from", from))
			}
		case store.BreakerClosed:
			log.LogAttrs(ctx, slog.LevelInfo, "store recovered: breaker closed",
				slog.String("from", from))
		default: // half-open probe admitted
			log.LogAttrs(ctx, slog.LevelDebug, "store breaker admitting recovery probe",
				slog.String("from", from))
		}
	})
}

// TraceDump is the body of GET /v1/debug/traces: the most recent completed
// and in-flight request traces, newest first.
type TraceDump struct {
	// Total counts every trace ever added to the ring; len(Traces) is
	// bounded by the ring capacity.
	Total  int64           `json:"total"`
	Traces []obs.TraceView `json:"traces"`
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, TraceDump{
		Total:  s.obs.ring.Total(),
		Traces: s.obs.ring.Snapshot(),
	})
}

// handlePromMetrics serves the Prometheus text exposition (the JSON
// counters stay at /v1/metrics).
func (s *Server) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.obs.reg.WriteTo(w)
}
