package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"dpcpp/internal/analysis"
	"dpcpp/internal/obs"
)

// get performs one GET against the handler without a network hop.
func get(t testing.TB, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// TestObservabilityHeaders: every response carries a request ID and a
// Server-Timing header; an analyze response's timing includes the analysis
// span recorded inside the engine.
func TestObservabilityHeaders(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	w := post(t, s, "/v1/analyze", analyzeBody(t, testTaskset(t, 0), string(analysis.DPCPpEN)))
	if w.Code != http.StatusOK {
		t.Fatalf("analyze: %d %s", w.Code, w.Body.String())
	}
	id := w.Header().Get("X-Request-ID")
	if len(id) != 16 {
		t.Fatalf("X-Request-ID = %q, want 16 hex chars", id)
	}
	st := w.Header().Get("Server-Timing")
	if !strings.Contains(st, "total;dur=") {
		t.Fatalf("Server-Timing = %q, want a total entry", st)
	}
	if !strings.Contains(st, "analysis;dur=") {
		t.Fatalf("Server-Timing = %q, want an analysis span on a cache miss", st)
	}

	// The repeat is served from cache; its timing has no analysis span but
	// still a total, and a fresh request ID.
	w2 := post(t, s, "/v1/analyze", analyzeBody(t, testTaskset(t, 0), string(analysis.DPCPpEN)))
	if got := w2.Header().Get("X-Request-ID"); got == "" || got == id {
		t.Fatalf("repeat request ID = %q (first %q); must be fresh", got, id)
	}
	if st2 := w2.Header().Get("Server-Timing"); !strings.Contains(st2, "total;dur=") {
		t.Fatalf("repeat Server-Timing = %q", st2)
	}
}

// TestAnalyzeStageSpans: a cold /v1/analyze reports where its time went —
// body read, decode, finalize, hash and response encode around the
// per-method analysis spans — in Server-Timing and in the trace ring; an
// exact-body repeat reads and answers, nothing else.
func TestAnalyzeStageSpans(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	body := analyzeBody(t, testTaskset(t, 0)) // all five methods
	stages := []string{"read", "decode", "finalize", "hash", "encode"}
	w := post(t, s, "/v1/analyze", body)
	if w.Code != http.StatusOK {
		t.Fatalf("analyze: %d %s", w.Code, w.Body.String())
	}
	st := w.Header().Get("Server-Timing")
	for _, name := range stages {
		if !strings.Contains(st, name+";dur=") {
			t.Errorf("cold Server-Timing %q lacks a %s span", st, name)
		}
	}
	if n := strings.Count(st, "analysis;dur="); n != len(analysis.Methods()) {
		t.Errorf("cold Server-Timing %q has %d analysis spans, want %d", st, n, len(analysis.Methods()))
	}

	var dump TraceDump
	if err := json.Unmarshal(get(t, s, "/v1/debug/traces").Body.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, tr := range dump.Traces {
		if tr.Endpoint == "analyze" {
			for _, sp := range tr.Spans {
				names = append(names, sp.Name)
			}
			break
		}
	}
	for _, name := range stages {
		if !slices.Contains(names, name) {
			t.Errorf("analyze trace spans %v lack %s", names, name)
		}
	}

	st = post(t, s, "/v1/analyze", body).Header().Get("Server-Timing")
	if !strings.HasPrefix(st, "read;dur=") || strings.Count(st, ";dur=") != 2 {
		t.Errorf("exact-body hit Server-Timing = %q, want read and total only", st)
	}
}

// TestPromMetricsEndpoint drives real traffic and checks the Prometheus
// exposition: required families present, histogram invariants hold, and
// the counters agree with the JSON /v1/metrics view.
func TestPromMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	for i := 0; i < 3; i++ {
		if w := post(t, s, "/v1/analyze", analyzeBody(t, testTaskset(t, 0), string(analysis.DPCPpEN))); w.Code != http.StatusOK {
			t.Fatalf("analyze %d: %d", i, w.Code)
		}
	}
	w := get(t, s, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	text := w.Body.String()
	for _, family := range []string{
		"schedd_requests_total",
		"schedd_analyses_total",
		"schedd_cache_hits_total",
		"schedd_queue_depth",
		"schedd_store_breaker_state",
		"schedd_request_duration_seconds",
		"schedd_analysis_duration_seconds",
		"schedd_analysis_stage_duration_seconds",
	} {
		if !strings.Contains(text, "# TYPE "+family+" ") {
			t.Errorf("exposition missing family %s", family)
		}
	}
	for _, series := range []string{
		`schedd_request_duration_seconds_bucket{endpoint="analyze",le="+Inf"}`,
		`schedd_analysis_stage_duration_seconds_bucket{stage="round",le="+Inf"}`,
		`schedd_analysis_stage_duration_seconds_bucket{stage="fixpoint",le="+Inf"}`,
		"schedd_analysis_duration_seconds_sum",
		"schedd_analysis_duration_seconds_count",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("exposition missing series %s", series)
		}
	}
	// Counters agree with the JSON view (requests counted before /metrics).
	m := s.Metrics()
	if !strings.Contains(text, "schedd_requests_total 3\n") {
		t.Errorf("schedd_requests_total: want 3 (JSON says %d):\n%s", m.Requests, text)
	}
	if m.Analyses != 1 {
		t.Fatalf("analyses = %d, want 1 (two repeats were cache hits)", m.Analyses)
	}
	if !strings.Contains(text, "schedd_analyses_total 1\n") {
		t.Error("schedd_analyses_total: want 1")
	}
	// Stage histograms saw real samples through the pooled scratch hooks.
	if s.engine.stages.h[analysis.StageRound].Count() == 0 {
		t.Error("round-stage histogram empty; scratch hooks are not wired")
	}
	// Without a store, every breaker-state gauge reads 0.
	if !strings.Contains(text, `schedd_store_breaker_state{state="closed"} 0`) {
		t.Error("breaker-state gauge for closed should be 0 without a store")
	}
}

// TestDebugTraces exercises GET /v1/debug/traces: spans from real requests
// come back newest-first with the recorded stages.
func TestDebugTraces(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, TraceBuffer: 8})
	if w := post(t, s, "/v1/analyze", analyzeBody(t, testTaskset(t, 0), string(analysis.DPCPpEN))); w.Code != http.StatusOK {
		t.Fatalf("analyze: %d", w.Code)
	}
	w := get(t, s, "/v1/debug/traces")
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/debug/traces: %d", w.Code)
	}
	var dump TraceDump
	if err := json.Unmarshal(w.Body.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	// The traces request itself is newest; the analyze trace follows.
	if dump.Total < 1 || len(dump.Traces) < 1 {
		t.Fatalf("dump = %+v", dump)
	}
	var analyze *obs.TraceView
	for i := range dump.Traces {
		if dump.Traces[i].Endpoint == "analyze" {
			analyze = &dump.Traces[i]
			break
		}
	}
	if analyze == nil {
		t.Fatalf("no analyze trace in %+v", dump.Traces)
	}
	if analyze.Status != http.StatusOK || analyze.DurNS <= 0 {
		t.Fatalf("analyze trace = %+v", *analyze)
	}
	found := false
	for _, sp := range analyze.Spans {
		if sp.Name == "analysis" && sp.DurNS > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("analyze trace lacks an analysis span: %+v", analyze.Spans)
	}
}

// TestAccessLogSampling: with AccessLogEvery=2, exactly every second
// request emits one structured line carrying the request ID.
func TestAccessLogSampling(t *testing.T) {
	var buf bytes.Buffer
	logger, err := obs.NewLogger(&buf, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 2, Logger: logger, AccessLogEvery: 2})
	for i := 0; i < 4; i++ {
		get(t, s, "/healthz")
	}
	var lines []map[string]any
	for _, raw := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if raw == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(raw), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", raw, err)
		}
		if rec["msg"] == "request" {
			lines = append(lines, rec)
		}
	}
	if len(lines) != 2 {
		t.Fatalf("4 requests at 1-in-2 sampling logged %d access lines, want 2", len(lines))
	}
	for _, rec := range lines {
		if rec["req_id"] == "" || rec["endpoint"] != "healthz" || rec["status"] != float64(200) {
			t.Fatalf("access line = %v", rec)
		}
	}
}

// TestHealthzBuildInfo: the liveness body now attributes the binary.
func TestHealthzBuildInfo(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	w := get(t, s, "/healthz")
	if w.Code != http.StatusOK {
		t.Fatalf("/healthz: %d", w.Code)
	}
	var h struct {
		OK    bool      `json:"ok"`
		Build obs.Build `json:"build"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Build.GoVersion == "" {
		t.Fatalf("healthz = %+v; build info must carry the Go version", h)
	}
}

// TestEndpointClassification pins the closed label set.
func TestEndpointClassification(t *testing.T) {
	for path, want := range map[string]string{
		"/v1/analyze":        "analyze",
		"/v1/analyze/batch":  "batch",
		"/v1/grid":           "grid",
		"/v1/sweeps":         "sweeps",
		"/v1/sweeps/abc/xyz": "sweeps",
		"/v1/metrics":        "metrics",
		"/metrics":           "metrics",
		"/healthz":           "healthz",
		"/v1/debug/traces":   "traces",
		"/v1/unknown":        "other",
		"/..%2fadmin":        "other",
	} {
		if got := classifyEndpoint(path); got != want {
			t.Errorf("classifyEndpoint(%q) = %q, want %q", path, got, want)
		}
	}
}
