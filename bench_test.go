// Benchmarks regenerating every table and figure of the paper's evaluation
// (Sec. VII), plus ablations for the design choices DESIGN.md calls out.
//
// Each figure benchmark runs a reduced-sample acceptance-ratio sweep of its
// scenario and reports the two summary metrics that define the figure's
// shape: the area under the DPCP-p-EP curve versus the best baseline, via
// custom benchmark metrics. The table benchmark sweeps a deterministic
// subset of the 216-scenario grid. Full-accuracy runs use cmd/schedtest.
package dpcpp

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dpcpp/internal/analysis"
	"dpcpp/internal/experiments"
	"dpcpp/internal/model"
	"dpcpp/internal/obs"
	"dpcpp/internal/partition"
	"dpcpp/internal/rt"
	"dpcpp/internal/sim"
	"dpcpp/internal/taskgen"
)

// benchCampaign keeps benchmark iterations affordable; cmd/schedtest runs
// the full-sample version.
func benchCampaign(scen taskgen.Scenario) experiments.Campaign {
	return experiments.Campaign{
		Scenario:         scen,
		TasksetsPerPoint: 4,
		Seed:             2020,
	}
}

func auc(c *experiments.Curve, m analysis.Method) float64 {
	total := 0.0
	for i := range c.Points {
		total += c.Ratio(m, i)
	}
	return total / float64(len(c.Points))
}

func benchmarkFig(b *testing.B, sub string) {
	scen, err := taskgen.Fig2Scenario(sub)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var curve *experiments.Curve
	for i := 0; i < b.N; i++ {
		curve, err = benchCampaign(scen).Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(auc(curve, analysis.DPCPpEP), "auc-dpcp-ep")
	b.ReportMetric(auc(curve, analysis.DPCPpEN), "auc-dpcp-en")
	b.ReportMetric(auc(curve, analysis.SPIN), "auc-spin")
	b.ReportMetric(auc(curve, analysis.LPP), "auc-lpp")
	b.ReportMetric(auc(curve, analysis.FEDFP), "auc-fedfp")
}

// BenchmarkFig2a regenerates Fig. 2(a): U^avg=1.5, m=16, nr in [4,8], pr=0.5.
func BenchmarkFig2a(b *testing.B) { benchmarkFig(b, "2a") }

// BenchmarkFig2b regenerates Fig. 2(b): U^avg=1.5, m=32, nr in [8,16], pr=1.
func BenchmarkFig2b(b *testing.B) { benchmarkFig(b, "2b") }

// BenchmarkFig2c regenerates Fig. 2(c): U^avg=2, m=16, nr in [4,8], pr=0.5.
func BenchmarkFig2c(b *testing.B) { benchmarkFig(b, "2c") }

// BenchmarkFig2d regenerates Fig. 2(d): U^avg=2, m=32, nr in [8,16], pr=1.
func BenchmarkFig2d(b *testing.B) { benchmarkFig(b, "2d") }

// BenchmarkTables2and3 sweeps a deterministic stratified subset of the
// 216-scenario grid (every 9th scenario) and reports how often DPCP-p-EP
// dominates/outperforms each baseline, the headline statistics of the
// paper's Tables 2 and 3.
func BenchmarkTables2and3(b *testing.B) {
	full := taskgen.Grid()
	var grid []taskgen.Scenario
	for i := 0; i < len(full); i += 9 {
		grid = append(grid, full[i])
	}
	b.ReportAllocs()
	var g *experiments.GridResult
	for i := 0; i < b.N; i++ {
		var curves []*experiments.Curve
		for _, s := range grid {
			c := benchCampaign(s)
			c.TasksetsPerPoint = 2
			curve, err := c.Run()
			if err != nil {
				b.Fatal(err)
			}
			curves = append(curves, curve)
		}
		g = experiments.Aggregate(curves, analysis.Methods())
	}
	n := float64(g.Scenarios)
	b.ReportMetric(float64(g.Dominance[analysis.DPCPpEP][analysis.SPIN])/n, "dom-ep-over-spin")
	b.ReportMetric(float64(g.Dominance[analysis.DPCPpEP][analysis.LPP])/n, "dom-ep-over-lpp")
	b.ReportMetric(float64(g.Dominance[analysis.DPCPpEP][analysis.DPCPpEN])/n, "dom-ep-over-en")
	b.ReportMetric(float64(g.Outperformance[analysis.DPCPpEP][analysis.SPIN])/n, "out-ep-over-spin")
	b.ReportMetric(float64(g.Outperformance[analysis.DPCPpEP][analysis.LPP])/n, "out-ep-over-lpp")
}

// --- Ablations -----------------------------------------------------------

// BenchmarkPathCap measures the EP analysis cost and verdict quality as
// the path-enumeration cap shrinks (the Sec. VI trade-off between
// analysis precision and cost).
func BenchmarkPathCap(b *testing.B) {
	scen, _ := taskgen.Fig2Scenario("2a")
	// Taskset synthesis happens once, outside the timed region: the
	// benchmark measures the analysis, not the generator.
	g := taskgen.NewGenerator(scen)
	tasksets := make([]*Taskset, 0, 8)
	for s := int64(0); s < 8; s++ {
		ts, err := g.Taskset(rand.New(rand.NewSource(s)), 6.0)
		if err != nil {
			b.Fatal(err)
		}
		tasksets = append(tasksets, ts)
	}
	for _, cap := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("cap%d", cap), func(b *testing.B) {
			b.ReportAllocs()
			accepted := 0
			tested := 0
			for i := 0; i < b.N; i++ {
				for _, ts := range tasksets {
					tested++
					if analysis.Schedulable(analysis.DPCPpEP, ts, analysis.Options{PathCap: cap}) {
						accepted++
					}
				}
			}
			b.ReportMetric(float64(accepted)/float64(tested), "accept-ratio")
		})
	}
}

// BenchmarkPlacementHeuristic compares WFD (Algorithm 2) with the FFD
// ablation on the heavy-contention scenario.
func BenchmarkPlacementHeuristic(b *testing.B) {
	scen, _ := taskgen.Fig2Scenario("2b")
	// As in BenchmarkPathCap, synthesis stays outside the timed region.
	g := taskgen.NewGenerator(scen)
	tasksets := make([]*Taskset, 0, 8)
	for s := int64(0); s < 8; s++ {
		ts, err := g.Taskset(rand.New(rand.NewSource(s)), 4.0)
		if err != nil {
			b.Fatal(err)
		}
		tasksets = append(tasksets, ts)
	}
	for _, h := range []struct {
		name string
		ph   partition.PlacementHeuristic
	}{{"WFD", partition.WFD}, {"FFD", partition.FFD}} {
		b.Run(h.name, func(b *testing.B) {
			b.ReportAllocs()
			accepted, tested := 0, 0
			for i := 0; i < b.N; i++ {
				for _, ts := range tasksets {
					tested++
					if analysis.Schedulable(analysis.DPCPpEP, ts,
						analysis.Options{Placement: h.ph}) {
						accepted++
					}
				}
			}
			b.ReportMetric(float64(accepted)/float64(tested), "accept-ratio")
		})
	}
}

// BenchmarkAnalysisMethods measures the per-taskset cost of each
// schedulability test on a Fig. 2(a) workload, through the production
// scratch-recycling path (analysis.TestWith) exactly as the experiment
// worker pool and the server engine run it — steady-state, warm scratch.
func BenchmarkAnalysisMethods(b *testing.B) {
	scen, _ := taskgen.Fig2Scenario("2a")
	g := taskgen.NewGenerator(scen)
	ts, err := g.Taskset(rand.New(rand.NewSource(1)), 6.0)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range analysis.Methods() {
		b.Run(string(m), func(b *testing.B) {
			b.ReportAllocs()
			sc := analysis.NewScratch()
			analysis.TestWith(sc, m, ts, analysis.Options{}) // warm the arenas
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				analysis.TestWith(sc, m, ts, analysis.Options{})
			}
		})
	}
}

// benchStageRecorder mirrors the server engine's stage wiring: per-stage
// obs histograms fed through the allocation-free scratch hooks.
type benchStageRecorder struct {
	h [analysis.NumStages]*obs.Histogram
}

func newBenchStageRecorder() *benchStageRecorder {
	r := &benchStageRecorder{}
	for i := range r.h {
		r.h[i] = obs.NewHistogram(obs.DefaultLatencyBounds())
	}
	return r
}

func (r *benchStageRecorder) RecordStage(s analysis.Stage, d time.Duration) { r.h[s].Observe(d) }

// BenchmarkInstrumentedAnalysis is BenchmarkAnalysisMethods for the two
// DPCP-p methods with per-stage instrumentation enabled — the exact hot
// path a production schedd runs. Gated by cmd/benchgate: its ns/op and
// allocs/op versus the uninstrumented BenchmarkAnalysisMethods series pin
// the observability overhead (allocs must stay identical).
func BenchmarkInstrumentedAnalysis(b *testing.B) {
	scen, _ := taskgen.Fig2Scenario("2a")
	g := taskgen.NewGenerator(scen)
	ts, err := g.Taskset(rand.New(rand.NewSource(1)), 6.0)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []analysis.Method{analysis.DPCPpEN, analysis.DPCPpEP} {
		b.Run(string(m), func(b *testing.B) {
			b.ReportAllocs()
			sc := analysis.NewScratch()
			rec := newBenchStageRecorder()
			sc.SetStageRecorder(rec)
			analysis.TestWith(sc, m, ts, analysis.Options{}) // warm the arenas
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				analysis.TestWith(sc, m, ts, analysis.Options{})
			}
			b.StopTimer()
			if rec.h[analysis.StageRound].Snapshot().Count == 0 {
				b.Fatal("stage recorder saw no samples; instrumentation is dead")
			}
		})
	}
}

// BenchmarkDeltaAnalyze measures the incremental what-if path the server's
// POST /v1/analyze/delta rides: retained delta state answering a one-vertex
// WCET bump (the canonical admission-control query) via Delta.Apply —
// patch application, canonical re-hash, and the incremental re-analysis —
// against the cold full re-analysis of the same patched taskset. Gated by
// cmd/benchgate: the one-vertex-wcet-bump series is the endpoint's
// cache-hit-territory latency claim.
func BenchmarkDeltaAnalyze(b *testing.B) {
	scen, _ := taskgen.Fig2Scenario("2a")
	g := taskgen.NewGenerator(scen)
	ts, err := g.Taskset(rand.New(rand.NewSource(1)), 6.0)
	if err != nil {
		b.Fatal(err)
	}
	// Bump the lowest-priority task: the common "can this component grow"
	// query, and the one the delta analyzer reuses the most state for.
	low := ts.Tasks[0]
	for _, tk := range ts.Tasks {
		if low.Priority.Higher(tk.Priority) {
			low = tk
		}
	}
	bump := func(i int) model.Patch {
		return model.Patch{Ops: []model.PatchOp{{
			Op: model.OpSetWCET, Task: low.ID, Vertex: 0,
			Value: low.Vertices[0].WCET + 1 + rt.Time(i%16)*rt.Microsecond,
		}}}
	}

	b.Run("one-vertex-wcet-bump", func(b *testing.B) {
		sc := analysis.NewScratch()
		_, d := analysis.NewDelta(sc, analysis.DPCPpEP, ts, analysis.Options{})
		if d == nil {
			b.Fatal("base taskset not schedulable; no delta state")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, _, _, err := d.Apply(sc, bump(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold-full-analysis", func(b *testing.B) {
		sc := analysis.NewScratch()
		analysis.TestWith(sc, analysis.DPCPpEP, ts, analysis.Options{}) // warm the arenas
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			patched, _, err := model.ApplyPatch(ts, bump(i))
			if err != nil {
				b.Fatal(err)
			}
			analysis.TestWith(sc, analysis.DPCPpEP, patched, analysis.Options{})
		}
	})
}

// BenchmarkSimulator measures discrete-event simulation throughput on the
// autonomous-pipeline-sized workload and reports events (jobs+requests)
// per run.
func BenchmarkSimulator(b *testing.B) {
	scen := taskgen.Scenario{
		M:          8,
		NumRes:     taskgen.IntRange{Lo: 2, Hi: 4},
		UAvg:       1.5,
		PAccess:    0.75,
		NReq:       taskgen.IntRange{Lo: 1, Hi: 10},
		CSLen:      taskgen.TimeRange{Lo: 15 * rt.Microsecond, Hi: 50 * rt.Microsecond},
		VertsRange: taskgen.IntRange{Lo: 8, Hi: 16},
		EdgeProb:   0.15,
		PeriodLo:   2 * rt.Millisecond,
		PeriodHi:   10 * rt.Millisecond,
	}
	g := taskgen.NewGenerator(scen)
	var ts = mustSchedulable(b, g)
	res := analysis.Test(analysis.DPCPpEP, ts, analysis.Options{})
	var horizon rt.Time
	for _, t := range ts.Tasks {
		if t.Period > horizon {
			horizon = t.Period
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var m sim.Metrics
	for i := 0; i < b.N; i++ {
		s, err := sim.New(ts, res.Partition, sim.Config{Horizon: 4 * horizon})
		if err != nil {
			b.Fatal(err)
		}
		m, err = s.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Jobs), "jobs/run")
	b.ReportMetric(float64(m.Requests), "requests/run")
}

func mustSchedulable(b *testing.B, g *taskgen.Generator) *TasksetAlias {
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		ts, err := g.Taskset(r, 3.0)
		if err != nil {
			continue
		}
		if analysis.Schedulable(analysis.DPCPpEP, ts, analysis.Options{}) {
			return ts
		}
	}
	b.Fatal("no schedulable taskset found for the simulator benchmark")
	return nil
}

// TasksetAlias keeps the benchmark helper signatures readable.
type TasksetAlias = Taskset

// BenchmarkTaskGeneration measures the synthesis pipeline itself.
func BenchmarkTaskGeneration(b *testing.B) {
	scen, _ := taskgen.Fig2Scenario("2d") // hardest constraints
	g := taskgen.NewGenerator(scen)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		if _, err := g.Taskset(r, 16.0); err != nil {
			b.Fatal(err)
		}
	}
}

// diamondChainTask builds a finalized chain of 14 diamonds: 2^14 complete
// paths over 43 vertices.
func diamondChainTask(b *testing.B) *Task {
	ts := NewTaskset(4, 1)
	task := NewTask(0, 10*rt.Millisecond, 10*rt.Millisecond)
	prev := task.AddVertex(10 * rt.Microsecond)
	for i := 0; i < 14; i++ {
		x := task.AddVertex(20 * rt.Microsecond)
		y := task.AddVertex(30 * rt.Microsecond)
		j := task.AddVertex(10 * rt.Microsecond)
		task.AddEdge(prev, x)
		task.AddEdge(prev, y)
		task.AddEdge(x, j)
		task.AddEdge(y, j)
		prev = j
	}
	task.AddRequest(0, 0, 1, 5*rt.Microsecond)
	ts.Add(task)
	if err := ts.Finalize(); err != nil {
		b.Fatal(err)
	}
	return task
}

// BenchmarkPathEnumeration measures the EP path machinery on a DAG with an
// exponential path count (2^14 complete paths), exercising the cap check.
// enumerate-16k measures what the analysis actually consumes — the
// signature-collapsed views of EnumerateViews, which fold all 16k paths of
// this DAG into a single view — while enumerate-16k-legacy retains the
// concrete per-path enumeration kept for tests and diagnostics.
func BenchmarkPathEnumeration(b *testing.B) {
	task := diamondChainTask(b)
	b.Run("count", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			task.CountPaths()
		}
	})
	b.Run("bounds-dp", func(b *testing.B) {
		// Path bounds are memoized per task, so every iteration runs the
		// DP on a task that has never computed them; the fresh tasks are
		// built in batches outside the timer.
		b.ReportAllocs()
		var fresh []*Task
		for i := 0; i < b.N; i++ {
			if len(fresh) == 0 {
				b.StopTimer()
				fresh = make([]*Task, min(b.N-i, 256))
				for k := range fresh {
					fresh[k] = diamondChainTask(b)
				}
				b.StartTimer()
			}
			fresh[0].ComputePathBounds()
			fresh = fresh[1:]
		}
	})
	b.Run("enumerate-16k", func(b *testing.B) {
		b.ReportAllocs()
		var views []PathView
		for i := 0; i < b.N; i++ {
			var ok bool
			if views, ok = task.EnumerateViews(1 << 14); !ok {
				b.Fatal("cap exceeded unexpectedly")
			}
		}
		b.ReportMetric(float64(len(views)), "views")
	})
	b.Run("enumerate-16k-scratch", func(b *testing.B) {
		b.ReportAllocs()
		var vs ViewScratch
		var views []PathView
		for i := 0; i < b.N; i++ {
			var ok bool
			if views, ok = task.EnumerateViewsScratch(1<<14, &vs); !ok {
				b.Fatal("cap exceeded unexpectedly")
			}
		}
		b.ReportMetric(float64(len(views)), "views")
	})
	b.Run("enumerate-16k-legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := task.EnumeratePaths(1 << 14); !ok {
				b.Fatal("cap exceeded unexpectedly")
			}
		}
	})
}

// BenchmarkFig2Sweep regenerates all four Fig. 2 subplots at one taskset
// per utilization point through experiments.RunGrid: the paper's
// evaluation loop end to end (generation plus the five analyses), as the
// repository benchmark's fig2-sweep workload runs it. Two workers keep
// allocs/op independent of the machine's core count. Gated by
// cmd/benchgate, so sweep-level allocation growth fails CI.
func BenchmarkFig2Sweep(b *testing.B) {
	var scens []taskgen.Scenario
	for _, sub := range []string{"2a", "2b", "2c", "2d"} {
		scen, err := taskgen.Fig2Scenario(sub)
		if err != nil {
			b.Fatal(err)
		}
		scens = append(scens, scen)
	}
	tmpl := experiments.Campaign{TasksetsPerPoint: 1, Seed: 2020, Parallelism: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunGrid(tmpl, scens); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridSweep measures the grid-level experiment scheduler: many
// scenarios drained by one shared worker pool (versus the historical
// scenario-at-a-time sweep whose per-scenario pools idle through each
// scenario's tail).
func BenchmarkGridSweep(b *testing.B) {
	full := taskgen.Grid()
	var grid []taskgen.Scenario
	for i := 0; i < len(full); i += 27 {
		grid = append(grid, full[i])
	}
	tmpl := experiments.Campaign{TasksetsPerPoint: 2, Seed: 2020}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunGrid(tmpl, grid); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(grid)), "scenarios")
}

// BenchmarkDecodeTaskset measures model.DecodeTaskset (decode plus
// Finalize) on one Fig. 2(a) taskset at utilization 8. canonical is the
// document EncodeTaskset writes, which takes the single-pass decoder;
// fallback prepends an unknown field, which the decoder declines, so the
// same taskset goes through encoding/json.
func BenchmarkDecodeTaskset(b *testing.B) {
	scen, err := taskgen.Fig2Scenario("2a")
	if err != nil {
		b.Fatal(err)
	}
	ts, err := experiments.GenerateSample(taskgen.NewGenerator(scen), 1, 8)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.EncodeTaskset(&buf, ts); err != nil {
		b.Fatal(err)
	}
	canonical := buf.Bytes()
	fallback := append([]byte(`{"comment":"",`), canonical[1:]...)
	for _, bc := range []struct {
		name string
		doc  []byte
	}{{"canonical", canonical}, {"fallback", fallback}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.doc)))
			for i := 0; i < b.N; i++ {
				if _, err := model.DecodeTaskset(bytes.NewReader(bc.doc)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
