package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpcpp/internal/server"
)

// checkEvery is the share of service responses re-derived from a fresh
// analysis after the timed phase: every checkEvery-th one.
const checkEvery = 10

// harness is the analysis server under test: server.New behind a loopback
// net/http listener, with a client limited to one connection per CPU. The
// server runs without its on-disk store: on a shared VM the store's
// small-file creations on ext4 made p50 vary by a third between
// back-to-back runs, which would bury any change in the program. The store
// layer is timed by direct calls in admit-cold's traced pass instead.
type harness struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

func startHarness() (*harness, error) {
	srv, err := server.New(server.Config{Workers: workers()})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := &harness{
		srv:    srv,
		hs:     &http.Server{Handler: srv, ReadHeaderTimeout: time.Minute},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{
			Timeout: time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     workers(),
				MaxIdleConnsPerHost: workers(),
				DisableCompression:  true,
			},
		},
	}
	go func() { h.served <- h.hs.Serve(ln) }()
	return h, nil
}

// close shuts the listener down, waits for the serve loop to exit and
// stops the server's background runner.
func (h *harness) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = h.hs.Shutdown(ctx) // a timed-out drain still ends Serve below
	<-h.served
	h.srv.Close()
	h.client.CloseIdleConnections()
}

// post sends one JSON body and returns the status and response body.
func (h *harness) post(path string, body []byte) (int, []byte, error) {
	resp, err := h.client.Post(h.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// counters reads GET /v1/metrics.
func (h *harness) counters() (server.Metrics, error) {
	var m server.Metrics
	resp, err := h.client.Get(h.url + "/v1/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /v1/metrics: status %d", resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// counterDelta is after minus before for every monotonic counter.
func counterDelta(a, b server.Metrics) server.Metrics {
	return server.Metrics{
		Requests:         b.Requests - a.Requests,
		Analyses:         b.Analyses - a.Analyses,
		CacheHits:        b.CacheHits - a.CacheHits,
		CacheMisses:      b.CacheMisses - a.CacheMisses,
		Coalesced:        b.Coalesced - a.Coalesced,
		Rejected:         b.Rejected - a.Rejected,
		Canceled:         b.Canceled - a.Canceled,
		DeadlineExceeded: b.DeadlineExceeded - a.DeadlineExceeded,
		DeltaHits:        b.DeltaHits - a.DeltaHits,
		DeltaFallbacks:   b.DeltaFallbacks - a.DeltaFallbacks,
	}
}

// setCounterMetrics reports the server.* counter metrics of a timed phase;
// exactHits is the number of /v1/analyze requests the exact-body tier
// served (the server has no counter of its own for that tier).
func setCounterMetrics(r *result, d server.Metrics, exactHits int) {
	r.set("server.exact_hit_ratio", ratio(float64(exactHits), float64(d.Requests)))
	r.set("server.cache_hit_ratio", ratio(float64(d.CacheHits), float64(d.CacheHits+d.CacheMisses)))
	r.set("server.delta_hit_ratio", ratio(float64(d.DeltaHits), float64(d.DeltaHits+d.DeltaFallbacks)))
	r.set("server.analyses_per_request", ratio(float64(d.Analyses), float64(d.Requests)))
	r.set("server.rejected", float64(d.Rejected))
	r.set("server.coalesced", float64(d.Coalesced))
	if d.Canceled != 0 || d.DeadlineExceeded != 0 || d.Rejected != 0 {
		r.problem("server dropped work: canceled %d, deadline %d, rejected %d",
			d.Canceled, d.DeadlineExceeded, d.Rejected)
	}
}

// shot is the timing of one open-loop request.
type shot struct {
	late    time.Duration // send time minus due time
	latency time.Duration // completion time minus due time
	backlog int64         // requests outstanding when this one was sent
}

// maxOutstanding bounds the open loop's in-flight requests; past it the
// generator itself falls behind, which shows as lateness.
const maxOutstanding = 1024

// openLoop issues n requests at a fixed rate, each on its own goroutine,
// and times each from when it was due, so a stall also charges the
// requests queued behind it. It returns once every request has completed.
func openLoop(n int, rate float64, send func(i int)) []shot {
	shots := make([]shot, n)
	interval := time.Duration(float64(time.Second) / rate)
	sem := make(chan struct{}, maxOutstanding)
	var outstanding atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		shots[i].late = time.Since(due)
		shots[i].backlog = outstanding.Add(1)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			send(i)
			shots[i].latency = time.Since(due)
			outstanding.Add(-1)
			<-sem
		}(i, due)
	}
	wg.Wait()
	return shots
}

// closedLoop runs requests [0, n) over clients concurrent callers, each
// sending its next request when the previous one completes, and returns
// each completion's offset from the start, in completion order.
func closedLoop(clients, n int, send func(i int)) []time.Duration {
	var next atomic.Int64
	var mu sync.Mutex
	done := make([]time.Duration, 0, n)
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				send(i)
				mu.Lock()
				done = append(done, time.Since(start))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return done
}

// openWindow is the least number of open-loop requests per p99 window, so
// that each window's p99 has at least ten samples beyond it.
const openWindow = 1000

// windowedThroughput is the median over consecutive windows of size
// completions (about a second's worth) of each window's completions per
// second: a burst of interference on the shared machine spoils one window,
// not the figure.
func windowedThroughput(done []time.Duration, size int) float64 {
	var rates []float64
	prev := time.Duration(0)
	for end := size; end <= len(done); end += size {
		rates = append(rates, float64(size)/(done[end-1]-prev).Seconds())
		prev = done[end-1]
	}
	if len(rates) == 0 && len(done) > 0 {
		rates = append(rates, float64(len(done))/done[len(done)-1].Seconds())
	}
	return median(rates)
}

// setLoadMetrics reports the open-loop latency and generator validity
// metrics, and flags a run over its p99 limit or with a growing backlog.
func setLoadMetrics(r *result, shots []shot, limitMS float64) {
	lat := make([]float64, len(shots))
	late := make([]float64, len(shots))
	var maxBacklog int64
	for i, s := range shots {
		lat[i] = s.latency.Seconds() * 1e3
		late[i] = s.late.Seconds() * 1e3
		maxBacklog = max(maxBacklog, s.backlog)
	}
	// p99 is the median over equal windows of at least openWindow
	// requests (in due order) of each window's p99, for the same reason as
	// windowedThroughput.
	var p99s []float64
	w := max(1, len(lat)/openWindow)
	for k := 0; k < w; k++ {
		p99s = append(p99s, quantile(append([]float64(nil), lat[k*len(lat)/w:(k+1)*len(lat)/w]...), 0.99))
	}
	p99 := median(p99s)
	r.set("loadgen.p99_ms", p99)
	r.set("loadgen.p90_ms", quantile(append([]float64(nil), lat...), 0.9))
	r.set("loadgen.p50_ms", median(lat))
	r.set("loadgen.late_p99_ms", quantile(late, 0.99))
	r.set("loadgen.max_backlog", float64(maxBacklog))
	r.set("loadgen.sent", float64(len(shots)))
	r.info["p99_limit_ms"] = limitMS
	r.info["p99_over_limit"] = p99 > limitMS
	r.info["backlog_grew"] = backlogGrew(shots)
	r.info["open_loop_samples"] = len(shots)
}

// backlogGrew reports whether the outstanding-request count in the last
// quarter of the open loop clearly exceeds the first quarter's: the offered
// rate was above what the server sustained.
func backlogGrew(shots []shot) bool {
	q := len(shots) / 4
	if q == 0 {
		return false
	}
	var first, last float64
	for i := 0; i < q; i++ {
		first += float64(shots[i].backlog)
		last += float64(shots[len(shots)-1-i].backlog)
	}
	return last > 2*first+float64(q*workers())
}

// serveDirect runs one request through Server.ServeHTTP in-process and
// returns the recorder.
func serveDirect(srv *server.Server, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// serverTiming parses a Server-Timing header into (name, duration) pairs,
// leaving out the total.
func serverTiming(h string) []timing {
	var out []timing
	for _, part := range strings.Split(h, ",") {
		name, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		ms, err := strconv.ParseFloat(strings.TrimPrefix(params, "dur="), 64)
		if err != nil || name == "total" {
			continue
		}
		out = append(out, timing{name, time.Duration(ms * 1e6)})
	}
	return out
}

type timing struct {
	name string
	dur  time.Duration
}

// reportedLayer maps the server's Server-Timing span names to the layer
// that does the work; unlisted names (cache, flight) are the server's own.
var reportedLayer = map[string]string{
	"analysis": "analysis", "delta-analysis": "delta", "delta-base": "analysis",
	"patch": "model", "store": "store",
}

// addReported attaches the spans the server reported in Server-Timing as
// children of the ServeHTTP span, laid end to end from its start: the
// server's own account of where its time went.
func addReported(tr *tracer, parent int, h string) {
	if tr == nil {
		return
	}
	at := tr.spans[parent].Start
	for _, t := range serverTiming(h) {
		layer := reportedLayer[t.name]
		if layer == "" {
			layer = "server"
		}
		tr.spans = append(tr.spans, span{
			Name: layer + ".reported/" + t.name, Req: tr.spans[parent].Req, Parent: parent,
			Start: at, End: at + int64(t.dur),
		})
		at += int64(t.dur)
	}
}
