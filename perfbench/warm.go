package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dpcpp/internal/analysis"
	"dpcpp/internal/model"
	"dpcpp/internal/rt"
	"dpcpp/internal/server"
	"dpcpp/internal/taskgen"
)

// admit-warm sizing, fixed like admit-cold's. The hot set is hotBases
// schedulable tasksets analysed in set-up; the mix per ten requests is
// five exact-body repeats, two canonical repeats with fresh bytes and
// three chained delta bumps.
const (
	warmRate            = 1200.0
	warmNominalCapacity = 5000.0
	warmP99LimitMS      = 50.0
	hotBases            = 128
	// maxBaseViews keeps the hot set to typical tasksets: about three
	// quarters of the schedulable draws have at most this many path views
	// (the median has about 80), while the rest have up to forty times
	// more. Retained delta state and delta work grow with the views, so
	// with them the heap and the mix's cost would hinge on how many large
	// bases a seed happens to draw.
	maxBaseViews = 256
)

type class int

const (
	exactClass class = iota
	canonicalClass
	deltaClass
	numClasses
)

var classMix = [10]class{
	exactClass, exactClass, exactClass, exactClass, exactClass,
	canonicalClass, canonicalClass,
	deltaClass, deltaClass, deltaClass,
}

// hotBase is one taskset of the hot set with its delta chain: every delta
// request sets the WCET of one vertex to its base value plus the step
// number, quoting the previous response's hash as its base, so every
// patched hash is new.
type hotBase struct {
	ts     *model.Taskset // finalized
	body   []byte         // the exact /v1/analyze body sent in set-up
	task   rt.TaskID
	vertex rt.VertexID
	wcet0  rt.Time

	mu   sync.Mutex // serializes the chain's requests
	head string     // hash the next delta patches
	// hashes[k] is the patched hash the server returned for step k+1.
	hashes []string
	// kept maps checked steps to their response bodies.
	kept map[int][]byte
}

func (b *hotBase) bump(step int) model.Patch {
	return model.Patch{Ops: []model.PatchOp{{
		Op: model.OpSetWCET, Task: b.task, Vertex: b.vertex, Value: b.wcet0 + rt.Time(step),
	}}}
}

func deltaBody(base string, p model.Patch) []byte {
	body, err := json.Marshal(server.DeltaRequest{Base: base, Patch: p})
	if err != nil {
		panic(err) // a DeltaRequest of plain values always encodes
	}
	return body
}

// canonicalBody is the base's exact body with a unique timeout_ms, far
// above any latency limit, added in front: new bytes, same taskset.
func canonicalBody(exact []byte, i int) []byte {
	b := make([]byte, 0, len(exact)+32)
	b = append(b, `{"timeout_ms":`...)
	b = strconv.AppendInt(b, int64(3_600_000+i), 10)
	b = append(b, ',')
	return append(b, exact[1:]...)
}

// pickBases draws schedulable tasksets (DPCP-p-EP and -EN both accept) at
// low utilization, with at most maxBaseViews path views in total, until it
// has n of them.
func pickBases(seed int64, n int) ([]*hotBase, error) {
	scens := coldScenarios()
	gens := []*taskgen.Generator{taskgen.NewGenerator(scens[0]), taskgen.NewGenerator(scens[1])}
	sc := analysis.NewScratch()
	var out []*hotBase
	for i := 0; len(out) < n; i++ {
		if i > 50*n {
			return nil, fmt.Errorf("only %d schedulable bases in %d draws", len(out), i)
		}
		// The four lowest utilization points of either subplot.
		ts, err := drawAt(gens[i%2], scens[i%2], seed, (i/2)%4, i/8)
		if err != nil {
			return nil, err
		}
		views := 0
		for _, t := range ts.Tasks {
			views += t.CountViews()
		}
		if views > maxBaseViews ||
			!analysis.TestWith(sc, analysis.DPCPpEP, ts, analysis.Options{}).Schedulable ||
			!analysis.TestWith(sc, analysis.DPCPpEN, ts, analysis.Options{}).Schedulable {
			continue
		}
		body, err := json.Marshal(server.AnalyzeRequest{Taskset: ts})
		if err != nil {
			return nil, err
		}
		t := ts.Tasks[0]
		out = append(out, &hotBase{
			ts: ts, body: body, task: t.ID, vertex: t.Vertices[0].ID, wcet0: t.Vertices[0].WCET,
			kept: make(map[int][]byte),
		})
	}
	return out, nil
}

// warmSetup is one set-up of admit-warm: the hot set analysed through
// /v1/analyze, delta state established for every base, and the request
// plan.
type warmSetup struct {
	bases []*hotBase
	h     *harness
	plan  []planned
}

type planned struct {
	class class
	base  int
}

// establish analyses every base through /v1/analyze and starts its delta
// chain with a first bump that carries base_taskset.
func establish(post func(path string, body []byte) (int, []byte, error), bases []*hotBase) error {
	for i, b := range bases {
		status, _, err := post("/v1/analyze", b.body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if err != nil {
			return fmt.Errorf("analyze base %d: %w", i, err)
		}
		body, err := json.Marshal(server.DeltaRequest{BaseTaskset: b.ts, Patch: b.bump(1)})
		if err != nil {
			return err
		}
		status, resp, err := post("/v1/analyze/delta", body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, resp)
		}
		if err != nil {
			return fmt.Errorf("delta base %d: %w", i, err)
		}
		var dr server.DeltaResponse
		if err := json.Unmarshal(resp, &dr); err != nil {
			return err
		}
		b.head = dr.Hash
		b.hashes = []string{dr.Hash}
	}
	return nil
}

func newWarmSetup(e *env, n int) (*warmSetup, error) {
	s := &warmSetup{}
	var err error
	if s.bases, err = pickBases(e.seed, hotBases); err != nil {
		return nil, err
	}
	if s.h, err = startHarness(); err != nil {
		return nil, err
	}
	if err := establish(s.h.post, s.bases); err != nil {
		s.h.close()
		return nil, err
	}
	// The class order is shuffled per block of ten; within each class the
	// bases take turns, so every hot result is read again long before the
	// bounded result cache could evict it.
	rng := rand.New(rand.NewSource(e.seed))
	s.plan = make([]planned, n)
	var next [numClasses]int
	for lo := 0; lo < n; lo += len(classMix) {
		mix := classMix
		rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
		for k := 0; k < len(mix) && lo+k < n; k++ {
			c := mix[k]
			s.plan[lo+k] = planned{class: c, base: next[c] % len(s.bases)}
			next[c]++
		}
	}
	return s, nil
}

func runWarm(e *env, r *result) error {
	nOpen := int(warmRate * 0.6 * e.budget.Seconds())
	nClosed := int(warmNominalCapacity * 0.4 * e.budget.Seconds())
	n := nOpen + nClosed

	var setups []float64
	var s *warmSetup
	for k := 0; k < e.setupReps; k++ {
		if s != nil {
			s.h.close()
		}
		start := time.Now()
		var err error
		if s, err = newWarmSetup(e, n); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer s.h.close()
	runtime.GC() // set-up garbage must not carry into the measured heap
	r.set("setup_s", median(setups))
	r.info["offered_rate_per_s"] = warmRate
	r.info["closed_loop_requests"] = nClosed

	var failed, notIncremental atomic.Int64
	var okByClass [numClasses]atomic.Int64
	kept := make([][]byte, n)
	send := func(i int) {
		p := s.plan[i]
		ok := false
		switch p.class {
		case exactClass, canonicalClass:
			body := s.bases[p.base].body
			if p.class == canonicalClass {
				body = canonicalBody(body, i)
			}
			status, resp, err := s.h.post("/v1/analyze", body)
			ok = err == nil && status == http.StatusOK
			if ok && i%checkEvery == 0 {
				kept[i] = resp
			}
		case deltaClass:
			// Chains take turns, so a chain's previous bump has long
			// returned when its next one is due; the lock only orders the
			// rare overlap.
			b := s.bases[p.base]
			b.mu.Lock()
			step := len(b.hashes) + 1
			status, resp, err := s.h.post("/v1/analyze/delta", deltaBody(b.head, b.bump(step)))
			var dr server.DeltaResponse
			ok = err == nil && status == http.StatusOK && json.Unmarshal(resp, &dr) == nil && dr.BaseHash == b.head
			if ok {
				b.head = dr.Hash
				b.hashes = append(b.hashes, dr.Hash)
				if step%checkEvery == 0 {
					b.kept[step] = resp
				}
				for _, info := range dr.Delta {
					if !info.Incremental {
						notIncremental.Add(1)
					}
				}
			}
			b.mu.Unlock()
		}
		if ok {
			okByClass[p.class].Add(1)
		} else {
			failed.Add(1)
		}
	}
	before, err := s.h.counters()
	if err != nil {
		return err
	}
	rw := startRuntimeWindow()
	shots := openLoop(nOpen, warmRate, send)
	done := closedLoop(workers(), nClosed, func(i int) { send(nOpen + i) })
	rs := rw.stop()
	after, err := s.h.counters()
	if err != nil {
		return err
	}
	r.attempted += n
	r.failed += int(failed.Load())

	setLoadMetrics(r, shots, warmP99LimitMS)
	r.set("throughput_per_s", windowedThroughput(done, int(warmNominalCapacity)))
	r.set("peak_heap_mb", rs.peakHeapMB)
	r.set("runtime.gc_cpu_ratio", rs.gcCPURatio)
	r.set("runtime.alloc_mb_per_s", rs.allocMBperS)
	// Client-side latency per class from due time, open-loop phase only.
	var lat [numClasses][]float64
	for i, sh := range shots {
		lat[s.plan[i].class] = append(lat[s.plan[i].class], sh.latency.Seconds()*1e3)
	}
	r.set("class.exact_p50_ms", median(lat[exactClass]))
	r.set("class.canonical_p50_ms", median(lat[canonicalClass]))
	r.set("class.delta_p50_ms", median(lat[deltaClass]))

	// Composition: no full analysis, every delta incremental, every
	// analyze request a cache hit, and the class shares as planned.
	d := counterDelta(before, after)
	exact, canon, deltas := okByClass[exactClass].Load(), okByClass[canonicalClass].Load(), okByClass[deltaClass].Load()
	methods := int64(len(analysis.Methods()))
	if d.Requests != int64(n) || d.DeltaFallbacks != 0 || d.Analyses != d.DeltaHits ||
		d.DeltaHits != 2*deltas || notIncremental.Load() != 0 || d.CacheHits != methods*(exact+canon) {
		r.problem("admit-warm composition drifted: %d requests, %d analyses, %d delta hits, %d fallbacks, %d non-incremental, %d cache hits for %d exact + %d canonical + %d delta",
			d.Requests, d.Analyses, d.DeltaHits, d.DeltaFallbacks, notIncremental.Load(), d.CacheHits, exact, canon, deltas)
	}
	for c, want := range map[class]float64{exactClass: 0.5, canonicalClass: 0.2, deltaClass: 0.3} {
		if got := ratio(float64(okByClass[c].Load()), float64(n)); got < want-0.03 || got > want+0.03 {
			r.problem("admit-warm class %d share %.3f, want %.2f", c, got, want)
		}
	}
	// The server counts no exact-tier hits itself; every analyze request
	// was a cache hit (checked above) and canonical bodies are unique, so
	// the exact tier served exactly the exact-class requests.
	setCounterMetrics(r, d, int(exact))

	bad := checkWarm(e, s.bases, s.plan, kept)
	r.failed += bad
	if bad > 0 {
		r.problem("%d admit-warm responses differ from a fresh analysis or patch replay", bad)
	}
	r.notApplicable("taskgen.", "experiments.", "analysis.", "store.", "server.cold")
	if !e.trace {
		return nil
	}
	return traceWarm(e, r, s.bases)
}

// checkWarm re-derives the kept analyze responses from a fresh
// analysis.Test of their base, replays every delta chain through
// model.ApplyPatch comparing each returned hash, and re-analyses every
// checked step. It returns the number of mismatches.
func checkWarm(e *env, bases []*hotBase, plan []planned, kept [][]byte) int {
	bad := 0
	refs := make([]*server.AnalyzeResponse, len(bases))
	for i, resp := range kept {
		if resp == nil {
			continue
		}
		b := plan[i].base
		if refs[b] == nil {
			refs[b] = reference(bases[b].ts, analysis.Methods())
			if e.corruptReference {
				for _, mr := range refs[b].Results {
					mr.Schedulable = !mr.Schedulable
				}
			}
		}
		if !sameJSON(resp, refs[b]) {
			bad++
		}
	}
	incremental := []analysis.Method{analysis.DPCPpEP, analysis.DPCPpEN}
	for _, b := range bases {
		ts := b.ts
		for k, got := range b.hashes {
			next, _, err := model.ApplyPatch(ts, b.bump(k+1))
			if err != nil || next.Hash().String() != got {
				bad++
				break
			}
			ts = next
			resp, ok := b.kept[k+1]
			if !ok {
				continue
			}
			ref := reference(ts, incremental)
			var dr server.DeltaResponse
			if json.Unmarshal(resp, &dr) != nil || dr.Hash != ref.Hash ||
				!sameJSON(mustJSON(dr.Results), &ref.Results) {
				bad++
			}
		}
	}
	return bad
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // decoded response values always re-encode
	}
	return b
}

// traceWarm replays the warm mix on one goroutine against a fresh
// single-worker server set up with the same hot set: each class is served
// through ServeHTTP, and the canonical tier's decode, Finalize and Hash and
// the delta tier's ApplyPatch and Delta.Apply are timed by direct calls.
func traceWarm(e *env, r *result, bases []*hotBase) error {
	srv, err := server.New(server.Config{Workers: 1})
	if err != nil {
		return err
	}
	defer srv.Close()
	post := func(path string, body []byte) (int, []byte, error) {
		rec := serveDirect(srv, path, body)
		return rec.Code, rec.Body.Bytes(), nil
	}
	// Fresh chains, so the traced server sees the same first steps.
	chains := make([]*hotBase, len(bases))
	for i, b := range bases {
		chains[i] = &hotBase{ts: b.ts, body: b.body, task: b.task, vertex: b.vertex, wcet0: b.wcet0}
	}
	if err := establish(post, chains); err != nil {
		return err
	}
	sc := analysis.NewScratch()
	type direct struct {
		ts     *model.Taskset
		states [2]*analysis.Delta
	}
	ds := make([]direct, len(chains))
	for i, b := range chains {
		ds[i].ts, _, err = model.ApplyPatch(b.ts, b.bump(1))
		if err != nil {
			return err
		}
		for k, m := range []analysis.Method{analysis.DPCPpEP, analysis.DPCPpEN} {
			if _, ds[i].states[k] = analysis.NewDelta(sc, m, ds[i].ts, analysis.Options{}); ds[i].states[k] == nil {
				return fmt.Errorf("base %d: no %s delta state", i, m)
			}
		}
	}

	tr := newTracer()
	var reused, recomputed float64
	var untraced, traced time.Duration
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < e.budget; k++ {
		i := k % len(chains)
		b := chains[i]
		serve := func(name, path string, body []byte) ([]byte, error) {
			root := tr.begin(name, k, -1)
			rec := serveDirect(srv, path, body)
			tr.end(root)
			if rec.Code != http.StatusOK {
				return nil, fmt.Errorf("traced %s: status %d: %s", name, rec.Code, rec.Body.Bytes())
			}
			addReported(tr, root, rec.Header().Get("Server-Timing"))
			return rec.Body.Bytes(), nil
		}
		if _, err := serve("server.ServeHTTP/exact", "/v1/analyze", b.body); err != nil {
			return err
		}
		canon := canonicalBody(b.body, k)
		if _, err := serve("server.ServeHTTP/canonical", "/v1/analyze", canon); err != nil {
			return err
		}
		step := len(b.hashes) + 1
		resp, err := serve("server.ServeHTTP/delta", "/v1/analyze/delta", deltaBody(b.head, b.bump(step)))
		if err != nil {
			return err
		}
		var dr server.DeltaResponse
		if err := json.Unmarshal(resp, &dr); err != nil {
			return err
		}
		b.head = dr.Hash
		b.hashes = append(b.hashes, dr.Hash)

		// Direct calls: the canonical tier's model work, and the delta
		// tier's patch and incremental analysis on the direct chain,
		// untraced and traced in alternating order.
		for pass := 0; pass < 2; pass++ {
			t := tr
			if (pass+k)%2 == 0 {
				t = nil
			}
			t0 := time.Now()
			if err := directCanonical(t, k, canon); err != nil {
				return err
			}
			if t == nil {
				untraced += time.Since(t0)
			} else {
				traced += time.Since(t0)
			}
		}
		d := &ds[i]
		patch := b.bump(step)
		var next *model.Taskset
		tr.call("model.ApplyPatch", k, -1, func() { next, _, err = model.ApplyPatch(d.ts, patch) })
		if err != nil {
			return err
		}
		for j, name := range []string{"delta.Apply/EP", "delta.Apply/EN"} {
			var h model.Hash
			var st analysis.DeltaStats
			var nd *analysis.Delta
			tr.call(name, k, -1, func() { h, _, st, nd, err = d.states[j].Apply(sc, patch) })
			if err != nil || nd == nil || h.String() != dr.Hash {
				return fmt.Errorf("direct %s on base %d: hash %s, server %s, err %v", name, i, h, dr.Hash, err)
			}
			d.states[j] = nd
			reused += float64(st.Reused)
			recomputed += float64(st.Recomputed)
		}
		d.ts = next
	}

	us := func(name string) float64 { return median(scaled(tr.durations(name), 1e-3)) }
	r.set("server.exact_hit_us", us("server.ServeHTTP/exact"))
	r.set("server.canonical_hit_us", us("server.ServeHTTP/canonical"))
	r.set("server.delta_us", us("server.ServeHTTP/delta"))
	r.set("server.exact_hit_alloc_kb", tr.meanAlloc("server.ServeHTTP/exact")/1024)
	r.set("model.decode_us", us("model.decode"))
	r.set("model.finalize_us", us("model.Finalize"))
	r.set("model.hash_us", us("model.Hash"))
	r.set("model.apply_patch_us", us("model.ApplyPatch"))
	applies := append(tr.durations("delta.Apply/EP"), tr.durations("delta.Apply/EN")...)
	r.set("delta.apply_us", median(scaled(applies, 1e-3)))
	r.set("delta.alloc_kb", (tr.meanAlloc("delta.Apply/EP")+tr.meanAlloc("delta.Apply/EN"))/2/1024)
	r.set("delta.reused_ratio", ratio(reused, reused+recomputed))
	// Coverage: the canonical tier's decode+Finalize+Hash and the delta
	// tier's two Delta.Apply calls against the two classes' ServeHTTP time.
	covered := sum(tr.durations("model.decode")) + sum(tr.durations("model.Finalize")) +
		sum(tr.durations("model.Hash")) + sum(applies)
	total := sum(tr.durations("server.ServeHTTP/canonical")) + sum(tr.durations("server.ServeHTTP/delta"))
	r.set("trace.coverage", ratio(covered, total))
	r.set("trace.overhead_pct", 100*ratio(float64(traced-untraced), float64(untraced)))
	return finishTrace(e, r, tr)
}

// directCanonical is the canonical tier's model work on one body.
func directCanonical(tr *tracer, req int, body []byte) error {
	root := tr.begin("perfbench.direct", req, -1)
	defer tr.end(root)
	var ar *server.AnalyzeRequest
	var err error
	tr.call("model.decode", req, root, func() { ar, err = decodeRequest(body) })
	if err != nil {
		return err
	}
	tr.call("model.Finalize", req, root, func() { err = ar.Taskset.Finalize() })
	if err != nil {
		return err
	}
	tr.call("model.Hash", req, root, func() { _ = ar.Taskset.Hash() })
	return nil
}
