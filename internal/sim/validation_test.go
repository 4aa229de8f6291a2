package sim

import (
	"math/rand"
	"testing"

	"dpcpp/internal/analysis"
	"dpcpp/internal/model"
	"dpcpp/internal/partition"
	"dpcpp/internal/rt"
	"dpcpp/internal/taskgen"
)

// figure1Tasks builds the two DAG tasks of the paper's Fig. 1(a), with
// 1us as the figure's unit time. l0 plays the paper's global l1 (red,
// used by v_{i,2} and v_{j,3}); l1 plays the local l2 (blue, used by
// v_{i,3} and v_{i,4}).
func figure1Tasks(t *testing.T) *model.Taskset {
	t.Helper()
	ts := model.NewTaskset(4, 2)

	gi := model.NewTask(0, 40*us, 40*us)
	wi := []rt.Time{2, 3, 2, 2, 4, 2, 2, 2}
	for _, c := range wi {
		gi.AddVertex(c * us)
	}
	for _, e := range [][2]rt.VertexID{{0, 1}, {0, 2}, {0, 3}, {0, 4},
		{1, 5}, {2, 5}, {3, 6}, {4, 6}, {5, 7}, {6, 7}} {
		gi.AddEdge(e[0], e[1])
	}
	gi.AddRequest(1, 0, 1, 2*us) // v_{i,2} uses the global resource
	gi.AddRequest(2, 1, 1, 2*us) // v_{i,3} uses the local resource
	gi.AddRequest(3, 1, 1, 2*us) // v_{i,4} uses the local resource
	ts.Add(gi)

	gj := model.NewTask(1, 30*us, 30*us)
	wj := []rt.Time{1, 3, 3, 4, 4, 1}
	for _, c := range wj {
		gj.AddVertex(c * us)
	}
	for _, e := range [][2]rt.VertexID{{0, 1}, {0, 2}, {0, 3}, {0, 4},
		{1, 5}, {2, 5}, {3, 5}, {4, 5}} {
		gj.AddEdge(e[0], e[1])
	}
	gj.AddRequest(2, 0, 1, 2*us) // v_{j,3} uses the global resource
	ts.Add(gj)

	if err := ts.Finalize(); err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestFigure1Schedule(t *testing.T) {
	ts := figure1Tasks(t)
	p := partition.New(ts)
	p.Assign(0, 2)        // tau_i on procs 0,1
	p.Assign(1, 2)        // tau_j on procs 2,3
	p.PlaceResource(0, 1) // the global resource on tau_i's second processor (paper: p2)

	s, err := New(ts, p, Config{Horizon: 30 * us, Placement: FrontCS, CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v := s.Violations(); len(v) > 0 {
		t.Fatalf("violations: %v\ntrace: %v", v, s.Trace())
	}
	if m.DeadlineMisses != 0 {
		t.Errorf("deadline misses: %d", m.DeadlineMisses)
	}
	if m.MaxLowPrioBlockers > 1 {
		t.Errorf("Lemma 1: MaxLowPrioBlockers = %d", m.MaxLowPrioBlockers)
	}
	// Both jobs complete; the paper's schedule finishes both by t=12 with
	// its specific interleaving. Our deterministic FrontCS layout is close
	// but not identical; sanity-check the responses stay in that regime
	// and respect the trivial lower bounds (L* = 10 and 8).
	if m.MaxResponse[0] < 10*us || m.MaxResponse[0] > 20*us {
		t.Errorf("response(G_i) = %s, want within [10us, 20us]\n%s",
			rt.FormatTime(m.MaxResponse[0]), Gantt(s.Trace(), 4, 20*us, us))
	}
	if m.MaxResponse[1] < 8*us || m.MaxResponse[1] > 16*us {
		t.Errorf("response(G_j) = %s, want within [8us, 16us]",
			rt.FormatTime(m.MaxResponse[1]))
	}
	// Exactly two global requests are served, on processor 1, by agents.
	if m.Requests != 2 {
		t.Errorf("Requests = %d, want 2", m.Requests)
	}
	agentProcs := map[rt.ProcID]bool{}
	for _, sp := range s.Trace() {
		if sp.Agent {
			agentProcs[sp.Proc] = true
		}
	}
	if len(agentProcs) != 1 || !agentProcs[1] {
		t.Errorf("agents executed on %v, want only proc 1", agentProcs)
	}
}

// TestSimNeverExceedsAnalysis is the repository's gold soundness check:
// for randomly generated tasksets that DPCP-p-EP declares schedulable, the
// simulated worst response observed over several synchronous hyperperiods
// must stay at or below the analytical bound, for every CS placement.
func TestSimNeverExceedsAnalysis(t *testing.T) {
	scen := taskgen.Scenario{
		M:          8,
		NumRes:     taskgen.IntRange{Lo: 2, Hi: 4},
		UAvg:       1.5,
		PAccess:    0.75,
		NReq:       taskgen.IntRange{Lo: 1, Hi: 10},
		CSLen:      taskgen.TimeRange{Lo: 15 * us, Hi: 50 * us},
		VertsRange: taskgen.IntRange{Lo: 6, Hi: 16},
		EdgeProb:   0.15,
		PeriodLo:   1 * rt.Millisecond,
		PeriodHi:   8 * rt.Millisecond,
	}
	g := taskgen.NewGenerator(scen)

	checked := 0
	for seed := int64(0); seed < 40 && checked < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		ts, err := g.Taskset(r, 2.0+r.Float64()*3)
		if err != nil {
			continue
		}
		res := analysis.Test(analysis.DPCPpEP, ts, analysis.Options{})
		if !res.Schedulable {
			continue
		}
		checked++
		var horizon rt.Time
		for _, task := range ts.Tasks {
			if task.Period > horizon {
				horizon = task.Period
			}
		}
		horizon *= 3

		for _, placement := range []CSPlacement{SpreadCS, FrontCS, BackCS} {
			s, err := New(ts, res.Partition, Config{Horizon: horizon, Placement: placement})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			m, err := s.Run()
			if err != nil {
				t.Fatalf("seed %d placement %d: %v", seed, placement, err)
			}
			if v := s.Violations(); len(v) > 0 {
				t.Fatalf("seed %d placement %d: violations: %v", seed, placement, v)
			}
			if m.DeadlineMisses != 0 {
				t.Errorf("seed %d placement %d: %d deadline misses on an analyzed-schedulable set",
					seed, placement, m.DeadlineMisses)
			}
			if m.MaxLowPrioBlockers > 1 {
				t.Errorf("seed %d placement %d: Lemma 1 violated (%d lower-priority blockers)",
					seed, placement, m.MaxLowPrioBlockers)
			}
			for _, task := range ts.Tasks {
				if simR := m.MaxResponse[task.ID]; simR > res.WCRT[task.ID] {
					t.Errorf("seed %d placement %d task %d: simulated response %s exceeds analytic bound %s",
						seed, placement, task.ID, rt.FormatTime(simR), rt.FormatTime(res.WCRT[task.ID]))
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no schedulable taskset generated; test ineffective")
	}
}

// TestSimStressInvariants drives the simulator deliberately into overload
// (a taskset the analysis rejects) to make sure the protocol invariants —
// mutual exclusion, ceiling rule, agent priority, Lemma 1 — hold even when
// deadlines are missed.
func TestSimStressInvariants(t *testing.T) {
	scen := taskgen.Scenario{
		M:          4,
		NumRes:     taskgen.IntRange{Lo: 2, Hi: 3},
		UAvg:       1.5,
		PAccess:    1,
		NReq:       taskgen.IntRange{Lo: 5, Hi: 20},
		CSLen:      taskgen.TimeRange{Lo: 50 * us, Hi: 100 * us},
		VertsRange: taskgen.IntRange{Lo: 6, Hi: 12},
		EdgeProb:   0.2,
		PeriodLo:   1 * rt.Millisecond,
		PeriodHi:   4 * rt.Millisecond,
	}
	g := taskgen.NewGenerator(scen)
	ran := 0
	for seed := int64(100); seed < 130 && ran < 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		ts, err := g.Taskset(r, 3.5)
		if err != nil {
			continue
		}
		// Force a cramped manual partition: one processor per task,
		// resources stacked on processor 0.
		p := partition.New(ts)
		feasible := true
		for _, task := range ts.Tasks {
			if !p.Assign(task.ID, 1) {
				feasible = false
				break
			}
		}
		if !feasible {
			continue
		}
		for _, q := range ts.GlobalResources() {
			p.PlaceResource(q, 0)
		}
		ran++
		s, err := New(ts, p, Config{Horizon: 8 * rt.Millisecond, HardStop: 200 * rt.Millisecond})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if v := s.Violations(); len(v) > 0 {
			t.Errorf("seed %d: protocol invariants violated under overload: %v", seed, v)
		}
	}
	if ran == 0 {
		t.Skip("no overload taskset generated")
	}
}
