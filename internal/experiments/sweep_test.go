package experiments

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"dpcpp/internal/analysis"
	"dpcpp/internal/model"
	"dpcpp/internal/taskgen"
)

func sweepScenario(t *testing.T, name string) taskgen.Scenario {
	t.Helper()
	scen, err := taskgen.Fig2Scenario(name)
	if err != nil {
		t.Fatal(err)
	}
	return scen.DefaultStructure()
}

// TestSweepSubsetDeterminism is the resume contract: running two points
// alone must draw bit-identical tasksets to a full sweep at those points,
// because checkpoint/resume replays exactly such subsets. One worker
// drains the flat index space in order, so the i-th analyze call is
// sample i%samples of the (i/samples)-th selected point.
func TestSweepSubsetDeterminism(t *testing.T) {
	scen := sweepScenario(t, "2a")
	const samples = 2
	collect := func(points []int) map[[2]int]model.Hash {
		sw := Sweep{Scenarios: []taskgen.Scenario{scen}, Methods: []analysis.Method{analysis.FEDFP},
			Samples: samples, Seed: 2020, Workers: 1}
		if points != nil {
			sw.Points = [][]int{points}
		} else {
			for i := range taskgen.UtilizationPoints(scen.M) {
				points = append(points, i)
			}
		}
		got := make(map[[2]int]model.Hash)
		calls := 0
		err := sw.Run(context.Background(), func(_ int, ts *model.Taskset, ok []bool) error {
			got[[2]int{points[calls/samples], calls % samples}] = ts.Hash()
			calls++
			return nil
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	full := collect(nil)
	utils := taskgen.UtilizationPoints(scen.M)
	if len(full) != len(utils)*samples {
		t.Fatalf("full sweep analyzed %d samples, want %d", len(full), len(utils)*samples)
	}
	subset := collect([]int{3, 7})
	if len(subset) != 2*samples {
		t.Fatalf("subset sweep analyzed %d samples, want %d", len(subset), 2*samples)
	}
	for k, h := range subset {
		if full[k] != h {
			t.Errorf("point %d sample %d: subset hash %s != full-sweep hash %s",
				k[0], k[1], h, full[k])
		}
	}
}

// TestSweepPointCallbacks: across several scenarios in one index space,
// onPoint fires exactly once per selected point, complete and after all of
// its samples were folded; analyze sees worker indices in range, and its
// verdicts land on the right methods.
func TestSweepPointCallbacks(t *testing.T) {
	scens := []taskgen.Scenario{sweepScenario(t, "2a"), sweepScenario(t, "2c")}
	points := [][]int{{0, 4, 9}, {2, 5}}
	const samples, workers = 2, 3
	methods := []analysis.Method{analysis.DPCPpEN, analysis.FEDFP}
	var calls atomic.Int64
	var mu sync.Mutex
	done := make(map[[2]int]bool)
	sw := Sweep{Scenarios: scens, Points: points, Methods: methods,
		Samples: samples, Seed: 1, Workers: workers}
	err := sw.Run(context.Background(),
		func(w int, ts *model.Taskset, ok []bool) error {
			if w < 0 || w >= workers {
				t.Errorf("worker %d out of range", w)
			}
			calls.Add(1)
			ok[0], ok[1] = true, false
			return nil
		},
		func(c int, tl *Tally) {
			mu.Lock()
			defer mu.Unlock()
			k := [2]int{c, tl.Point}
			if done[k] {
				t.Errorf("scenario %d point %d completed twice", c, tl.Point)
			}
			done[k] = true
			if !tl.Complete() {
				t.Errorf("scenario %d point %d incomplete without cancellation", c, tl.Point)
			}
			if tl.Total() != samples || tl.Accepted(0) != samples || tl.Accepted(1) != 0 {
				t.Errorf("scenario %d point %d: total %d accepted %d/%d, want %d %d/0",
					c, tl.Point, tl.Total(), tl.Accepted(0), tl.Accepted(1), samples, samples)
			}
			if want := taskgen.UtilizationPoints(scens[c].M)[tl.Point]; tl.Utilization != want {
				t.Errorf("scenario %d point %d: utilization %v, want %v", c, tl.Point, tl.Utilization, want)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	for c, pts := range points {
		for _, pi := range pts {
			if !done[[2]int{c, pi}] {
				t.Errorf("scenario %d point %d never completed", c, pi)
			}
		}
	}
	if len(done) != 5 || calls.Load() != 5*samples {
		t.Fatalf("%d points completed after %d analyses, want 5 after %d", len(done), calls.Load(), 5*samples)
	}
}

// TestSweepCancellation: a canceled context stops analyze calls and every
// point reports incomplete, and a sample whose analysis is abandoned
// leaves its point incomplete — so no caller checkpoints or streams a
// partially-run point.
func TestSweepCancellation(t *testing.T) {
	scen := sweepScenario(t, "2a")
	sw := Sweep{Scenarios: []taskgen.Scenario{scen}, Points: [][]int{{0, 1}},
		Methods: []analysis.Method{analysis.FEDFP}, Samples: 3, Seed: 1, Workers: 1}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the sweep starts: nothing may run
	analyzed, completes := 0, 0
	sw.Run(ctx,
		func(int, *model.Taskset, []bool) error { analyzed++; return nil },
		func(_ int, tl *Tally) {
			if tl.Complete() {
				t.Errorf("canceled sweep reported point %d complete", tl.Point)
			}
			completes++
		})
	if analyzed != 0 {
		t.Errorf("canceled sweep ran %d analyses, want 0", analyzed)
	}
	if completes != 2 {
		t.Errorf("canceled sweep drained %d points, want 2", completes)
	}

	// One worker drains in order: the first analysis (point 0, sample 0)
	// is abandoned, so point 0 is incomplete and point 1 is not.
	calls := 0
	complete := map[int]bool{}
	sw.Run(context.Background(),
		func(_ int, _ *model.Taskset, ok []bool) error {
			calls++
			if calls == 1 {
				return errors.New("abandoned")
			}
			ok[0] = true
			return nil
		},
		func(_ int, tl *Tally) { complete[tl.Point] = tl.Complete() })
	if complete[0] || !complete[1] {
		t.Errorf("abandoned sample: completeness %v, want point 0 incomplete, point 1 complete", complete)
	}
}
