package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"dpcpp/internal/analysis"
	"dpcpp/internal/model"
	"dpcpp/internal/taskgen"
)

// Sweep is the one executor behind every acceptance-ratio sweep: RunGrid
// and Campaign.Run here, and the analysis server's GET /v1/grid and sweep
// jobs. Its unit of work is one (scenario, point, sample): draw the taskset
// from SampleSeed, have the caller decide each method's verdict, and fold
// the verdicts into that point's Tally.
//
// The units of all scenarios drain through one ParallelFor index space, so
// a multi-scenario sweep keeps every worker busy across scenario
// boundaries instead of idling through each scenario's tail.
//
// Determinism: a sample's taskset is a pure function of (Seed, scenario
// name, point, sample), independent of which other points run, in which
// process, or how workers interleave, and every Tally count is a
// commutative sum. Running point 7 alone therefore draws bit-identical
// tasksets to a full sweep's point 7, which is what makes checkpoint and
// resume exact.
type Sweep struct {
	// Scenarios must have their structure resolved (DefaultStructure).
	Scenarios []taskgen.Scenario
	// Points[c] lists, ascending, the utilization-point indices (into
	// taskgen.UtilizationPoints(Scenarios[c].M)) to run for scenario c; a
	// nil Points runs every point of every scenario.
	Points [][]int
	// Methods indexes the verdicts analyze reports and each Tally's
	// accepted counts.
	Methods []analysis.Method
	// Samples is the per-point sample count (>= 1).
	Samples int
	// Seed is the base seed every sample seed derives from.
	Seed int64
	// Workers bounds the pool (<= 0 = GOMAXPROCS).
	Workers int
}

// Run executes the sweep. For every sample that generates, it calls
// analyze(worker, ts, ok), which must set ok[i] to the verdict of
// Methods[i]; worker (in [0, Workers)) lets callers keep worker-local
// analysis state without locking. analyze returns an error when it
// abandoned the sample mid-analysis (its context ended), and the sample
// then counts as neither accepted nor analyzed.
//
// When a point's last sample drains, onPoint(c, t) fires exactly once, from
// a worker goroutine, with t final. A canceled ctx stops new generation and
// analysis; the remaining samples drain without running, so their points
// report !t.Complete() and no caller publishes or checkpoints them.
//
// The returned error is the generation failure of the lexicographically
// smallest (scenario, point, sample), whatever order workers hit them in.
func (sw *Sweep) Run(ctx context.Context,
	analyze func(worker int, ts *model.Taskset, ok []bool) error,
	onPoint func(scen int, t *Tally)) error {

	nscen := len(sw.Scenarios)
	names := make([]string, nscen)
	tallies := make([][]Tally, nscen)
	// offsets[c] is the flat index of scenario c's first sample; the flat
	// index space [0, offsets[nscen]) is what ParallelFor iterates.
	offsets := make([]int, nscen+1)
	for c, scen := range sw.Scenarios {
		names[c] = scen.Name()
		utils := taskgen.UtilizationPoints(scen.M)
		var points []int
		if sw.Points == nil {
			points = make([]int, len(utils))
			for i := range points {
				points[i] = i
			}
		} else {
			points = sw.Points[c]
		}
		accepted := make([]atomic.Int64, len(points)*len(sw.Methods))
		tallies[c] = make([]Tally, len(points))
		for i, pi := range points {
			t := &tallies[c][i]
			t.Point, t.Utilization, t.samples = pi, utils[pi], int64(sw.Samples)
			t.accepted = accepted[i*len(sw.Methods) : (i+1)*len(sw.Methods)]
			t.left.Store(int64(sw.Samples))
		}
		offsets[c+1] = offsets[c] + len(points)*sw.Samples
	}
	units := offsets[nscen]
	if units == 0 {
		return nil
	}
	workers := min(Workers(sw.Workers), units)

	// Worker-local state needs no locking: generators are stateless across
	// samples, so each worker keeps one per scenario, and its verdict slice
	// is recycled sample after sample.
	gens := make([]*taskgen.Generator, workers*nscen)
	oks := make([][]bool, workers)
	var errMu sync.Mutex
	errAt := units // flat index of the smallest failing sample
	var genErr error

	ParallelFor(workers, units, func(w, idx int) {
		c := sort.SearchInts(offsets[1:], idx+1)
		rem := idx - offsets[c]
		t, si := &tallies[c][rem/sw.Samples], rem%sw.Samples
		if ctx.Err() == nil {
			g := gens[w*nscen+c]
			if g == nil {
				g = taskgen.NewGenerator(sw.Scenarios[c])
				gens[w*nscen+c] = g
			}
			ts, err := GenerateSample(g, SampleSeed(sw.Seed, names[c], t.Point, si), t.Utilization)
			if err != nil {
				t.genFail.Add(1)
				errMu.Lock()
				if idx < errAt {
					errAt, genErr = idx, err
				}
				errMu.Unlock()
			} else {
				if oks[w] == nil {
					oks[w] = make([]bool, len(sw.Methods))
				}
				if analyze(w, ts, oks[w]) == nil {
					t.add(oks[w])
				}
			}
		}
		if t.left.Add(-1) == 0 && onPoint != nil {
			onPoint(c, t)
		}
	})
	if genErr != nil {
		c := sort.SearchInts(offsets[1:], errAt+1)
		rem := errAt - offsets[c]
		return fmt.Errorf("scenario %s: point %d sample %d: %w",
			names[c], tallies[c][rem/sw.Samples].Point, rem%sw.Samples, genErr)
	}
	return nil
}

// Tally is the one per-point verdict accumulator of a Sweep: how many of a
// utilization point's samples each method accepted, how many were
// analyzed, and how many failed generation. Workers fold into it
// concurrently; read it once onPoint has handed it over.
type Tally struct {
	Point       int     // index into taskgen.UtilizationPoints(m)
	Utilization float64 // total taskset utilization of the point

	samples  int64
	accepted []atomic.Int64 // indexed like Sweep.Methods
	total    atomic.Int64
	genFail  atomic.Int64
	left     atomic.Int64 // samples not yet drained
}

// add folds one analyzed sample's verdicts.
func (t *Tally) add(ok []bool) {
	for i, v := range ok {
		if v {
			t.accepted[i].Add(1)
		}
	}
	t.total.Add(1)
}

// Total is the number of samples analyzed to a verdict.
func (t *Tally) Total() int { return int(t.total.Load()) }

// GenFailures is the number of samples whose generation failed.
func (t *Tally) GenFailures() int { return int(t.genFail.Load()) }

// Accepted is the number of samples Sweep.Methods[i] accepted.
func (t *Tally) Accepted(i int) int { return int(t.accepted[i].Load()) }

// Complete reports whether every sample of the point reached a verdict or
// a generation failure. It is false when the sweep was canceled before the
// point drained or an analysis was abandoned mid-flight: the counts are
// then an undercount that must never be streamed or checkpointed.
func (t *Tally) Complete() bool {
	return t.total.Load()+t.genFail.Load() == t.samples
}

// point renders the tally as a curve point of a scenario on m cores.
func (t *Tally) point(methods []analysis.Method, m int) Point {
	p := Point{
		Utilization: t.Utilization,
		Normalized:  t.Utilization / float64(m),
		Accepted:    make(map[analysis.Method]int, len(methods)),
		Total:       t.Total(),
	}
	for i, meth := range methods {
		if n := t.Accepted(i); n > 0 {
			p.Accepted[meth] = n
		}
	}
	return p
}
