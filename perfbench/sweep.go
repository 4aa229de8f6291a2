package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dpcpp/internal/analysis"
	"dpcpp/internal/experiments"
	"dpcpp/internal/model"
	"dpcpp/internal/taskgen"
)

// Sweep sizing. A batch is one regeneration of all four Fig. 2 subplots at
// sweepSamples tasksets per utilization point through experiments.RunGrid;
// each batch draws fresh tasksets from a seed derived from the workload
// seed and the batch index. The batch count is fixed by the budget (not
// by elapsed time), so every commit measured with the same seed and
// --seconds analyses exactly the same tasksets.
const (
	sweepSamples = 1
	sweepRounds  = 3
	// sweepNominalBatch is the batch wall time the batch count is sized
	// from: roughly what a batch takes on a 2-CPU x86-64 machine.
	sweepNominalBatch = 550 * time.Millisecond
	goldenSeed        = 2020
	goldenSamples     = 2
	goldenPath        = "cmd/schedtest/testdata/fig2a_n2.golden"
)

func fig2Scenarios() []taskgen.Scenario {
	var out []taskgen.Scenario
	for _, sub := range []string{"2a", "2b", "2c", "2d"} {
		s, err := taskgen.Fig2Scenario(sub)
		if err != nil {
			panic(err) // the four subplot names are constants
		}
		out = append(out, s)
	}
	return out
}

func batchSeed(seed int64, b int) int64 {
	return experiments.SampleSeed(seed, "perfbench-fig2-batch", b, 0)
}

func sweepCampaign(seed int64, samples int) experiments.Campaign {
	return experiments.Campaign{TasksetsPerPoint: samples, Seed: seed, Parallelism: workers()}
}

// curveDigest hashes the rendered curves, the same text cmd/schedtest
// prints.
func curveDigest(curves []*experiments.Curve) string {
	h := sha256.New()
	for _, c := range curves {
		h.Write([]byte(experiments.FormatCurve(c)))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkGolden regenerates cmd/schedtest's Fig. 2(a) golden through
// experiments.RunGrid and compares it byte for byte.
func checkGolden(root string) (bool, error) {
	want, err := os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		return false, err
	}
	scen, _ := taskgen.Fig2Scenario("2a")
	curves, err := experiments.RunGrid(sweepCampaign(goldenSeed, goldenSamples), []taskgen.Scenario{scen})
	if err != nil {
		return false, err
	}
	got := "Fig. 2(a): acceptance ratio vs normalized utilization\n" + experiments.FormatCurve(curves[0])
	return bytes.Equal([]byte(got), want), nil
}

func samplesPerBatch(scens []taskgen.Scenario) int {
	n := 0
	for _, s := range scens {
		n += len(taskgen.UtilizationPoints(s.M)) * sweepSamples
	}
	return n
}

func runSweep(e *env, r *result) error {
	scens := fig2Scenarios()
	perBatch := samplesPerBatch(scens)

	// Set-up: the golden reproduction plus one warm-up sweep on a fixed
	// seed, so the measured batches run on warmed code and heap.
	var setups []float64
	for k := 0; k < e.setupReps; k++ {
		start := time.Now()
		ok, err := checkGolden(e.root)
		if err != nil {
			return fmt.Errorf("golden check: %w", err)
		}
		if !ok {
			r.problem("experiments.RunGrid no longer reproduces %s", goldenPath)
		}
		if _, err := experiments.RunGrid(sweepCampaign(goldenSeed, sweepSamples), scens); err != nil {
			return fmt.Errorf("warm-up sweep: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.set("setup_s", median(setups))
	runtime.GC() // set-up garbage must not carry into the measured heap

	// Batches run in sweepRounds interleaved rounds; each batch's time is
	// its fastest round, which discards the slowdowns other tenants of a
	// shared machine cause, and every round must reproduce the curves of
	// the first.
	batches := max(1, int(e.budget/(sweepNominalBatch*sweepRounds)))
	best := make([]float64, batches)
	total := make([]float64, batches)
	digests := make([]string, batches)
	var peaks []float64
	rw := startRuntimeWindow()
	for round := 0; round < sweepRounds; round++ {
		for b := 0; b < batches; b++ {
			start := time.Now()
			curves, err := experiments.RunGrid(sweepCampaign(batchSeed(e.seed, b), sweepSamples), scens)
			wall := time.Since(start).Seconds() * 1e3
			peaks = append(peaks, rw.takePeakMB())
			done := 0
			for _, c := range curves {
				for _, p := range c.Points {
					done += p.Total
				}
			}
			r.attempted += perBatch
			r.failed += perBatch - done
			if err != nil {
				r.problem("batch %d: %v", b, err)
			}
			total[b] += wall
			d := curveDigest(curves)
			if round == 0 {
				digests[b], best[b] = d, wall
				continue
			}
			if d != digests[b] {
				r.problem("batch %d is not deterministic: round %d digest %s, round 0 %s", b, round, d, digests[b])
			}
			best[b] = min(best[b], wall)
		}
	}
	rs := rw.stop()
	all := sha256.Sum256([]byte(fmt.Sprint(digests)))
	r.info["curve_digest"] = hex.EncodeToString(all[:])[:16]
	r.info["batches"] = batches
	r.info["rounds"] = sweepRounds
	r.info["samples_per_batch"] = perBatch

	r.set("throughput_per_s", float64(perBatch*batches)/(sum(best)/1e3))
	r.set("experiments.batch_p50_ms", median(best))
	r.set("experiments.batch_p90_ms", quantile(best, 0.9))
	// The peak live heap of a typical batch: the median over batch runs
	// of each run's peak, so one unusually large taskset does not set it.
	r.set("peak_heap_mb", median(peaks))
	r.set("runtime.gc_cpu_ratio", rs.gcCPURatio)
	r.set("runtime.alloc_mb_per_s", rs.allocMBperS)
	r.notApplicable("model.", "delta.", "server.", "class.", "store.", "loadgen.")
	if !e.trace {
		return nil
	}
	for b := range total {
		total[b] /= sweepRounds
	}
	return traceSweep(e, r, scens, total)
}

// traceSweep replays the measured batches' samples on one goroutine,
// timing generation and each analysis, until the budget is spent (at least
// one whole batch). Each sample runs twice, untraced and traced in
// alternating order, so the tracing overhead is measured on the same work.
// walls holds each batch's mean wall time over the rounds.
func traceSweep(e *env, r *result, scens []taskgen.Scenario, walls []float64) error {
	tr := newTracer()
	sc := analysis.NewScratch()
	gens := make([]*taskgen.Generator, len(scens))
	for i, s := range scens {
		gens[i] = taskgen.NewGenerator(s)
	}
	var untraced, traced time.Duration
	var rounds []float64
	var batchWall float64
	req := 0
	start := time.Now()
	for b := 0; b < len(walls) && (b == 0 || time.Since(start) < e.budget); b++ {
		seed := batchSeed(e.seed, b)
		for i, s := range scens {
			name := s.Name()
			for pi, u := range taskgen.UtilizationPoints(s.M) {
				for si := 0; si < sweepSamples; si++ {
					ss := experiments.SampleSeed(seed, name, pi, si)
					for pass := 0; pass < 2; pass++ {
						t := tr
						if (pass+req)%2 == 0 {
							t = nil
						}
						t0 := time.Now()
						res, err := traceSample(t, req, gens[i], sc, ss, u)
						if err != nil {
							return fmt.Errorf("traced sample: %w", err)
						}
						if t == nil {
							untraced += time.Since(t0)
						} else {
							traced += time.Since(t0)
							rounds = append(rounds, res...)
						}
					}
					req++
				}
			}
		}
		batchWall += walls[b]
	}

	gen := tr.durations("taskgen.GenerateSample")
	samples := tr.durations("experiments.sample")
	r.set("taskgen.generate_us", median(scaled(gen, 1e-3)))
	r.set("taskgen.alloc_kb", tr.meanAlloc("taskgen.GenerateSample")/1024)
	r.set("taskgen.share", ratio(sum(gen), sum(samples)))
	// Single-worker sample time over the pool's wall time times its width.
	r.set("experiments.pool_efficiency", ratio(sum(samples)/1e6, batchWall*float64(workers())))
	setAnalysisMetrics(r, tr, len(samples), rounds)
	r.set("trace.coverage", tr.coverage("experiments.sample"))
	r.set("trace.overhead_pct", 100*ratio(float64(traced-untraced), float64(untraced)))
	return finishTrace(e, r, tr)
}

// traceSample draws and analyses one sample exactly as the sweep pool
// does and returns the partition rounds of each method.
func traceSample(tr *tracer, req int, g *taskgen.Generator, sc *analysis.Scratch,
	seed int64, util float64) ([]float64, error) {

	root := tr.begin("experiments.sample", req, -1)
	var ts *model.Taskset
	var err error
	tr.call("taskgen.GenerateSample", req, root, func() {
		ts, err = experiments.GenerateSample(g, seed, util)
	})
	if err != nil {
		return nil, err
	}
	rounds := make([]float64, 0, len(analysis.Methods()))
	for _, m := range analysis.Methods() {
		tr.call("analysis.TestWith/"+string(m), req, root, func() {
			rounds = append(rounds, float64(analysis.TestWith(sc, m, ts, analysis.Options{}).Rounds))
		})
	}
	tr.end(root)
	return rounds, nil
}

// setAnalysisMetrics fills the analysis.* metrics from the TestWith spans
// of a traced pass over units samples or requests.
func setAnalysisMetrics(r *result, tr *tracer, units int, rounds []float64) {
	keys := map[analysis.Method]string{
		analysis.DPCPpEP: "analysis.ep_us",
		analysis.DPCPpEN: "analysis.en_us",
		analysis.SPIN:    "analysis.spin_us",
		analysis.LPP:     "analysis.lpp_us",
		analysis.FEDFP:   "analysis.fedfp_us",
	}
	var alloc float64
	for m, key := range keys {
		name := "analysis.TestWith/" + string(m)
		r.set(key, median(scaled(tr.durations(name), 1e-3)))
		alloc += tr.meanAlloc(name) * float64(len(tr.durations(name)))
	}
	r.set("analysis.ep_p99_us", quantile(scaled(tr.durations("analysis.TestWith/"+string(analysis.DPCPpEP)), 1e-3), 0.99))
	r.set("analysis.alloc_kb", ratio(alloc/1024, float64(units)))
	r.set("analysis.rounds", mean(rounds))
}

// finishTrace prints the per-layer summary and writes the spans out.
func finishTrace(e *env, r *result, tr *tracer) error {
	tr.writeSummary(e.log)
	path := filepath.Join(filepath.Dir(e.work), "traces",
		fmt.Sprintf("%s-seed%d.json", r.info["workload"], e.seed))
	r.info["trace_file"] = path
	return tr.writeFile(path)
}
