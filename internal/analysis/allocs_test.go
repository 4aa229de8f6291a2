package analysis

import (
	"testing"
	"time"

	"dpcpp/internal/model"
	"dpcpp/internal/obs"
	"dpcpp/internal/partition"
)

// histRecorder adapts obs latency histograms to the StageRecorder hook —
// the exact wiring the server engine uses, so the zero-alloc gates below
// exercise production instrumentation, not a test stub.
type histRecorder struct{ h [NumStages]*obs.Histogram }

func newHistRecorder() *histRecorder {
	r := &histRecorder{}
	for i := range r.h {
		r.h[i] = obs.NewHistogram(obs.DefaultLatencyBounds())
	}
	return r
}

func (r *histRecorder) RecordStage(s Stage, d time.Duration) { r.h[s].Observe(d) }

// allocPartition returns a corpus taskset together with a partition to
// re-analyze, preferring a schedulable one so WCRTs exercises the full
// fixed-point machinery.
func allocPartition(t *testing.T, m Method) (*model.Taskset, *partition.Partition) {
	t.Helper()
	for _, ts := range equivalenceCorpus(t) {
		if res := Test(m, ts, Options{}); res.Partition != nil {
			return ts, res.Partition
		}
	}
	t.Fatal("no corpus taskset produced a partition")
	return nil, nil
}

// testWCRTsZeroAlloc pins the tentpole property: once the scratch arenas
// are warm, a full WCRTs round over a fixed partition allocates nothing —
// with per-stage instrumentation enabled, exactly as the server runs it.
// This is a hard gate — any regression (a map rebuilt per call, an arena
// growing per round, a slice escaping, a recorder that boxes) fails the
// test, not just a benchmark trend.
func testWCRTsZeroAlloc(t *testing.T, en bool) {
	m := DPCPpEP
	if en {
		m = DPCPpEN
	}
	ts, p := allocPartition(t, m)
	a := NewDPCPp(ts, DefaultPathCap, en)
	rec := newHistRecorder()
	a.sc.SetStageRecorder(rec)
	a.WCRTs(p) // warm: builds the view cache and sizes every arena
	if n := testing.AllocsPerRun(20, func() { a.WCRTs(p) }); n != 0 {
		t.Fatalf("%s warm WCRTs: %v allocs/run, want 0", m, n)
	}
	if rec.h[StageRound].Snapshot().Count == 0 || rec.h[StageFixPoint].Snapshot().Count == 0 {
		t.Fatalf("%s: stage recorder saw no samples (round=%d fixpoint=%d); instrumentation is dead",
			m, rec.h[StageRound].Snapshot().Count, rec.h[StageFixPoint].Snapshot().Count)
	}
}

func TestWCRTsZeroAllocEN(t *testing.T) { testWCRTsZeroAlloc(t, true) }
func TestWCRTsZeroAllocEP(t *testing.T) { testWCRTsZeroAlloc(t, false) }

// TestStageHooksZeroAlloc isolates the instrumentation itself: a
// stageStart/stageEnd pair feeding a real histogram recorder must not
// allocate (no interface boxing of the Stage or Duration arguments, no
// time.Time escape).
func TestStageHooksZeroAlloc(t *testing.T) {
	rec := newHistRecorder()
	sc := NewScratch()
	sc.SetStageRecorder(rec)
	if n := testing.AllocsPerRun(100, func() {
		sc.stageEnd(StageViews, sc.stageStart())
	}); n != 0 {
		t.Fatalf("stage hook pair: %v allocs/run, want 0", n)
	}
	if got := rec.h[StageViews].Snapshot().Count; got < 100 {
		t.Fatalf("recorder saw %d samples, want >= 100", got)
	}
}

// TestTestWithSteadyStateAllocs pins the steady-state allocation count of
// the full pipeline on a recycled scratch. TestWith cannot reach zero —
// the Result (partition, copied WCRT map) is caller-owned fresh memory by
// contract — so the bound pins what the pipeline itself needs; the
// analysis hot path contributes none of it (see TestWCRTsZeroAlloc*).
func TestTestWithSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		m     Method
		bound float64
	}{
		// Bounds are the measured steady state with headroom for map-bucket
		// variance, not targets: lowering them is progress, raising them is
		// a regression that needs a profile first.
		{DPCPpEP, 200},
		{DPCPpEN, 200},
	} {
		ts := equivalenceCorpus(t)[0]
		sc := NewScratch()
		TestWith(sc, tc.m, ts, Options{}) // warm the arenas
		n := testing.AllocsPerRun(10, func() { TestWith(sc, tc.m, ts, Options{}) })
		if n > tc.bound {
			t.Errorf("%s warm TestWith: %v allocs/run, want <= %v", tc.m, n, tc.bound)
		}
	}
}
