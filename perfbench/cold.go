package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dpcpp/internal/analysis"
	"dpcpp/internal/experiments"
	"dpcpp/internal/model"
	"dpcpp/internal/partition"
	"dpcpp/internal/server"
	"dpcpp/internal/store"
	"dpcpp/internal/taskgen"
)

// admit-cold sizing. The open loop offers coldRate requests per second,
// about a quarter of a 2-CPU machine's cold capacity, for coldOpenShare of
// the budget; the closed loop then sends the number of requests
// coldNominalCapacity would serve in the rest. Both are fixed numbers, not
// measured at run time, so every commit serves the same requests at the
// same offered load. At 40% of capacity, the p99 of a shared 2-CPU machine
// is set by other tenants' bursts rather than by the program.
const (
	coldRate            = 100.0
	coldOpenShare       = 0.7
	coldNominalCapacity = 400.0
	coldP99LimitMS      = 100.0
)

// pool holds pre-generated request bodies in an anonymous memory mapping
// outside the Go heap, so the inputs neither count in peak_heap_mb nor
// change the garbage collector's pacing of the server's own heap.
type pool struct {
	mem []byte
	off []int
}

func (p *pool) len() int { return len(p.off) - 1 }

func (p *pool) body(i int) []byte { return p.mem[p.off[i]:p.off[i+1]:p.off[i+1]] }

func (p *pool) close() error { return syscall.Munmap(p.mem) }

// coldScenarios are the subplots the admission workloads draw from: the
// m=16 ones, whose tasksets are sized like typical admission requests.
func coldScenarios() []taskgen.Scenario {
	a, _ := taskgen.Fig2Scenario("2a")
	c, _ := taskgen.Fig2Scenario("2c")
	return []taskgen.Scenario{a, c}
}

// drawTaskset returns input i of the stream named by seed: subplots
// alternate, utilization points cycle, so consecutive requests differ in
// cost and every point is drawn.
func drawTaskset(gens []*taskgen.Generator, scens []taskgen.Scenario, seed int64, i int) (*model.Taskset, error) {
	s := scens[i%len(scens)]
	pts := taskgen.UtilizationPoints(s.M)
	j := i / len(scens)
	return drawAt(gens[i%len(scens)], s, seed, j%len(pts), j/len(pts))
}

// drawAt draws the taskset the sweep would analyse as sample si of point
// pi of scenario s under the given seed.
func drawAt(g *taskgen.Generator, s taskgen.Scenario, seed int64, pi, si int) (*model.Taskset, error) {
	return experiments.GenerateSample(g, experiments.SampleSeed(seed, s.Name(), pi, si),
		taskgen.UtilizationPoints(s.M)[pi])
}

// decodeRequest decodes a /v1/analyze body the way the server does.
func decodeRequest(body []byte) (*server.AnalyzeRequest, error) {
	var ar server.AnalyzeRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return &ar, dec.Decode(&ar)
}

// maxBody bounds one pre-generated request body; the pool reserves this
// much address space per input and touches only what the bodies use.
const maxBody = 256 << 10

// buildPool generates n distinct /v1/analyze bodies (all five methods) in
// parallel chunks and appends them to the pool's mapping.
func buildPool(seed int64, n int) (*pool, error) {
	mem, err := syscall.Mmap(-1, 0, max(n, 1)*maxBody, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("mapping the input pool: %w", err)
	}
	p := &pool{mem: mem, off: []int{0}}
	scens := coldScenarios()
	const chunk = 256
	bodies := make([][]byte, chunk)
	errs := make([]error, chunk)
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers(); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				gens := make([]*taskgen.Generator, len(scens))
				for k, s := range scens {
					gens[k] = taskgen.NewGenerator(s)
				}
				for {
					i := lo + int(next.Add(1)) - 1
					if i >= hi {
						return
					}
					ts, err := drawTaskset(gens, scens, seed, i)
					if err == nil {
						bodies[i-lo], err = json.Marshal(server.AnalyzeRequest{Taskset: ts})
					}
					errs[i-lo] = err
				}
			}()
		}
		wg.Wait()
		for i := lo; i < hi; i++ {
			b, err := bodies[i-lo], errs[i-lo]
			if err == nil && len(b) > maxBody {
				err = fmt.Errorf("body of %d bytes exceeds %d", len(b), maxBody)
			}
			if err != nil {
				p.close()
				return nil, fmt.Errorf("input %d: %w", i, err)
			}
			end := p.off[len(p.off)-1]
			p.off = append(p.off, end+copy(mem[end:], b))
		}
	}
	return p, nil
}

// coldSetup is one set-up of admit-cold: the input pool, a started server
// and a warm-up on inputs outside the pool.
type coldSetup struct {
	pool *pool
	h    *harness
}

func (s *coldSetup) close() {
	if s.h != nil {
		s.h.close()
	}
	if s.pool != nil {
		s.pool.close()
	}
}

func newColdSetup(e *env, n int) (*coldSetup, error) {
	s := &coldSetup{}
	var err error
	if s.pool, err = buildPool(e.seed, n); err != nil {
		return nil, err
	}
	if s.h, err = startHarness(); err != nil {
		s.close()
		return nil, err
	}
	// Warm-up: a few requests from a stream of their own, which no
	// workload seed's pool can contain, so the measured requests find
	// warmed code, connections and heap but no cached result.
	scens := coldScenarios()
	g := taskgen.NewGenerator(scens[0])
	pts := taskgen.UtilizationPoints(scens[0].M)
	for i := 0; i < 8*workers(); i++ {
		ts, err := experiments.GenerateSample(g,
			experiments.SampleSeed(goldenSeed, "perfbench-warm-up", i, 0), pts[i%len(pts)])
		if err == nil {
			var body []byte
			body, _ = json.Marshal(server.AnalyzeRequest{Taskset: ts})
			var status int
			status, _, err = s.h.post("/v1/analyze", body)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d", status)
			}
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return s, nil
}

func runCold(e *env, r *result) error {
	nOpen := int(coldRate * coldOpenShare * e.budget.Seconds())
	nClosed := int(coldNominalCapacity * (1 - coldOpenShare) * e.budget.Seconds())
	n := nOpen + nClosed

	var setups []float64
	var s *coldSetup
	for k := 0; k < e.setupReps; k++ {
		if s != nil {
			s.close()
		}
		start := time.Now()
		var err error
		if s, err = newColdSetup(e, n); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer s.close()
	runtime.GC() // set-up garbage must not carry into the measured heap
	r.set("setup_s", median(setups))
	r.info["offered_rate_per_s"] = coldRate
	r.info["closed_loop_requests"] = nClosed

	var failed atomic.Int64
	kept := make([][]byte, (n+checkEvery-1)/checkEvery)
	send := func(i int) {
		status, resp, err := s.h.post("/v1/analyze", s.pool.body(i))
		if err != nil || status != http.StatusOK {
			failed.Add(1)
			return
		}
		if i%checkEvery == 0 {
			kept[i/checkEvery] = resp
		}
	}
	before, err := s.h.counters()
	if err != nil {
		return err
	}
	rw := startRuntimeWindow()
	shots := openLoop(nOpen, coldRate, send)
	done := closedLoop(workers(), nClosed, func(i int) { send(nOpen + i) })
	rs := rw.stop()
	after, err := s.h.counters()
	if err != nil {
		return err
	}
	r.attempted += n
	r.failed += int(failed.Load())

	setLoadMetrics(r, shots, coldP99LimitMS)
	r.set("throughput_per_s", windowedThroughput(done, int(coldNominalCapacity)))
	r.set("peak_heap_mb", rs.peakHeapMB)
	r.set("runtime.gc_cpu_ratio", rs.gcCPURatio)
	r.set("runtime.alloc_mb_per_s", rs.allocMBperS)

	// Composition: every request missed every tier and ran one analysis
	// per method.
	d := counterDelta(before, after)
	methods := int64(len(analysis.Methods()))
	if d.Requests != int64(n) || d.CacheHits != 0 || d.Analyses != methods*int64(n) {
		r.problem("admit-cold composition drifted: %d requests, %d cache hits, %d analyses for %d sent",
			d.Requests, d.CacheHits, d.Analyses, n)
	}
	setCounterMetrics(r, d, 0)

	bad, err := checkCold(e, s.pool, kept)
	if err != nil {
		return err
	}
	r.failed += bad
	if bad > 0 {
		r.problem("%d admit-cold responses differ from a fresh analysis.Test", bad)
	}
	r.notApplicable("taskgen.", "experiments.", "delta.", "class.", "model.apply_patch_us",
		"server.exact_hit", "server.canonical_hit_us", "server.delta_us")
	if !e.trace {
		return nil
	}
	return traceCold(e, r, s.pool)
}

// checkCold re-derives every kept response from a fresh analysis.Test of
// its input and returns the number of responses that differ.
func checkCold(e *env, p *pool, kept [][]byte) (int, error) {
	bad := 0
	for k, resp := range kept {
		if resp == nil {
			continue // the request failed and is already counted
		}
		req, err := decodeRequest(p.body(k * checkEvery))
		if err != nil {
			return 0, err
		}
		if err := req.Taskset.Finalize(); err != nil {
			return 0, err
		}
		want := reference(req.Taskset, analysis.Methods())
		if e.corruptReference && k == 0 {
			for _, mr := range want.Results {
				mr.Schedulable = !mr.Schedulable
			}
		}
		if !sameJSON(resp, want) {
			bad++
		}
	}
	return bad, nil
}

// reference is the expected /v1/analyze response body for a finalized
// taskset, from a fresh analysis.Test per method.
func reference(ts *model.Taskset, ms []analysis.Method) *server.AnalyzeResponse {
	want := &server.AnalyzeResponse{Hash: ts.Hash().String(), Results: make(map[string]*server.MethodResult)}
	for _, m := range ms {
		want.Results[string(m)] = wire(analysis.Test(m, ts, analysis.Options{}))
	}
	return want
}

// wire is the server's wire form of one analysis result.
func wire(res partition.Result) *server.MethodResult {
	return &server.MethodResult{
		Schedulable: res.Schedulable,
		WCRT:        res.WCRT,
		Rounds:      res.Rounds,
		Reason:      res.Reason,
	}
}

// sameJSON reports whether a response body and the reference decode to
// equal values of the same type: the reference goes through the same JSON
// round trip, so omitted-empty fields compare equal.
func sameJSON[T any](body []byte, want *T) bool {
	ref, err := json.Marshal(want)
	if err != nil {
		return false
	}
	var got, exp T
	if json.Unmarshal(body, &got) != nil || json.Unmarshal(ref, &exp) != nil {
		return false
	}
	return reflect.DeepEqual(got, exp)
}

// traceCold replays the pool's inputs on one goroutine until the budget is
// spent: each input is served cold by a fresh single-worker server through
// ServeHTTP, then decoded, finalized, hashed, analysed and encoded by direct
// calls, so the server's own time is what ServeHTTP costs beyond them. The
// direct calls also write each result to a store and read it back, which
// times the store layer the measured server runs without.
func traceCold(e *env, r *result, p *pool) error {
	srv, err := server.New(server.Config{Workers: 1})
	if err != nil {
		return err
	}
	defer srv.Close()
	// One direct store per pass, so every Put creates a new entry.
	var stores [2]*store.Store
	for pass := range stores {
		if stores[pass], err = store.Open(filepath.Join(e.work, fmt.Sprint("store", pass))); err != nil {
			return err
		}
	}
	tr := newTracer()
	sc := analysis.NewScratch()
	var rounds []float64
	var untraced, traced time.Duration
	start := time.Now()
	for i := 0; i < p.len() && (i == 0 || time.Since(start) < e.budget); i++ {
		body := p.body(i)
		root := tr.begin("server.ServeHTTP", i, -1)
		rec := serveDirect(srv, "/v1/analyze", body)
		tr.end(root)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("traced cold request %d: status %d", i, rec.Code)
		}
		addReported(tr, root, rec.Header().Get("Server-Timing"))
		for pass := 0; pass < 2; pass++ {
			t := tr
			if (pass+i)%2 == 0 {
				t = nil
			}
			t0 := time.Now()
			res, err := directCold(t, i, sc, stores[pass], body)
			if err != nil {
				return err
			}
			if t == nil {
				untraced += time.Since(t0)
			} else {
				traced += time.Since(t0)
				rounds = append(rounds, res...)
			}
		}
	}

	serve := perReq(tr, "server.ServeHTTP")
	inner := perReq(tr, "model.decode", "model.Finalize", "model.Hash",
		"analysis.TestWith/"+string(analysis.DPCPpEP), "analysis.TestWith/"+string(analysis.DPCPpEN),
		"analysis.TestWith/"+string(analysis.SPIN), "analysis.TestWith/"+string(analysis.LPP),
		"analysis.TestWith/"+string(analysis.FEDFP))
	// Work the server repeats inside ServeHTTP beyond the above: the
	// response encoding.
	around := perReq(tr, "server.encode")
	var self []float64
	var covered, total float64
	for req, d := range serve {
		self = append(self, (d-inner[req])/1e3)
		covered += inner[req] + around[req]
		total += d
	}
	r.set("server.cold_us", median(scaled(tr.durations("server.ServeHTTP"), 1e-3)))
	r.set("server.cold_self_us", median(self))
	r.set("model.decode_us", median(scaled(tr.durations("model.decode"), 1e-3)))
	r.set("model.finalize_us", median(scaled(tr.durations("model.Finalize"), 1e-3)))
	r.set("model.hash_us", median(scaled(tr.durations("model.Hash"), 1e-3)))
	r.set("store.put_us", median(scaled(tr.durations("store.Put"), 1e-3)))
	r.set("store.get_us", median(scaled(tr.durations("store.Get"), 1e-3)))
	setAnalysisMetrics(r, tr, len(serve), rounds)
	r.set("trace.coverage", ratio(covered, total))
	r.set("trace.overhead_pct", 100*ratio(float64(traced-untraced), float64(untraced)))
	fmt.Fprintf(e.log, "trace: model+analysis+encode calls cover %.1f%% of server.ServeHTTP time over %d cold requests\n",
		100*ratio(covered, total), len(serve))
	return finishTrace(e, r, tr)
}

// directCold performs the cold request's work by direct calls: decode,
// Finalize, Hash, every method's TestWith, and a store Put and Get of each
// response-sized result. It returns each method's partition rounds.
func directCold(tr *tracer, req int, sc *analysis.Scratch, st *store.Store, body []byte) ([]float64, error) {
	root := tr.begin("perfbench.direct", req, -1)
	defer tr.end(root)
	var ar *server.AnalyzeRequest
	var err error
	tr.call("model.decode", req, root, func() { ar, err = decodeRequest(body) })
	if err != nil {
		return nil, err
	}
	tr.call("model.Finalize", req, root, func() { err = ar.Taskset.Finalize() })
	if err != nil {
		return nil, err
	}
	var h model.Hash
	tr.call("model.Hash", req, root, func() { h = ar.Taskset.Hash() })
	resp := &server.AnalyzeResponse{Hash: h.String(), Results: make(map[string]*server.MethodResult)}
	var rounds []float64
	for _, m := range analysis.Methods() {
		var res *server.MethodResult
		tr.call("analysis.TestWith/"+string(m), req, root, func() {
			res = wire(analysis.TestWith(sc, m, ar.Taskset, analysis.Options{}))
		})
		rounds = append(rounds, float64(res.Rounds))
		resp.Results[string(m)] = res
		// The store layer alone: a write-through of this result as a new
		// entry, and reading it back.
		key := h.String() + "|" + string(m)
		var ok bool
		tr.call("store.Put", req, root, func() {
			var val []byte
			if val, err = json.Marshal(res); err == nil {
				err = st.Put(key, val)
			}
		})
		if err != nil {
			return nil, err
		}
		tr.call("store.Get", req, root, func() { _, ok, err = st.Get(key) })
		if err != nil || !ok {
			return nil, fmt.Errorf("store get %s: ok=%v err=%v", key, ok, err)
		}
	}
	tr.call("server.encode", req, root, func() { _, err = json.Marshal(resp) })
	return rounds, err
}

// perReq sums, per request, the durations (ns) of the spans with any of
// the given names.
func perReq(tr *tracer, names ...string) map[int]float64 {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[int]float64)
	for _, s := range tr.spans {
		if want[s.Name] {
			out[s.Req] += float64(s.dur())
		}
	}
	return out
}
