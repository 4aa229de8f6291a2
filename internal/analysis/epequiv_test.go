package analysis

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dpcpp/internal/model"
	"dpcpp/internal/partition"
	"dpcpp/internal/rt"
	"dpcpp/internal/taskgen"
)

// naiveEP is the pre-collapse reference implementation of DPCP-p-EP: one
// pathView per concrete enumerated path, exactly as the engine worked
// before signature collapsing. It reuses the production Theorem 1 evaluator
// (pathWCRT), so any divergence between it and the collapsed engine
// isolates the collapse/memoization layer.
type naiveEP struct {
	a *DPCPp
}

func (n *naiveEP) WCRTs(p *partition.Partition) map[rt.TaskID]rt.Time {
	wcrts := make(map[rt.TaskID]rt.Time, len(n.a.ts.Tasks))
	for _, t := range n.a.ts.ByPriorityDesc() {
		ctx := n.a.buildCtx(p, t, wcrts)
		views := n.viewsFor(ctx.task)
		var worst rt.Time
		for i := range views {
			r := n.a.pathWCRT(ctx, &views[i])
			if r > worst {
				worst = r
			}
			if worst >= rt.Infinity {
				break
			}
		}
		wcrts[t.ID] = worst
	}
	return wcrts
}

func (n *naiveEP) viewsFor(t *model.Task) []pathView {
	nr := n.a.ts.NumResources
	paths, ok := t.EnumeratePaths(n.a.pathCap)
	if !ok {
		return n.a.enView(t)
	}
	totalNonCrit := t.NonCritWCET()
	views := make([]pathView, len(paths))
	for i, p := range paths {
		v := pathView{
			length:     p.Length,
			offNonCrit: totalNonCrit - p.NonCrit,
			onPath:     make([]int64, nr),
			offPath:    make([]int64, nr),
		}
		for q := 0; q < nr; q++ {
			c := p.Requests(rt.ResourceID(q))
			v.onPath[q] = c
			v.offPath[q] = t.NumRequests(rt.ResourceID(q)) - c
		}
		views[i] = v
	}
	return views
}

// equivalenceCorpus draws tasksets across contention levels; generation
// failures for a (seed, util) pair are skipped, matching sweep behavior.
func equivalenceCorpus(t *testing.T) []*model.Taskset {
	t.Helper()
	scen := taskgen.Scenario{
		M: 16, NumRes: taskgen.IntRange{Lo: 4, Hi: 8}, UAvg: 1.5, PAccess: 0.5,
		NReq:  taskgen.IntRange{Lo: 1, Hi: 25},
		CSLen: taskgen.TimeRange{Lo: 15 * rt.Microsecond, Hi: 50 * rt.Microsecond},
	}.DefaultStructure()
	g := taskgen.NewGenerator(scen)
	var corpus []*model.Taskset
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		for _, util := range []float64{4.0, 8.0} {
			ts, err := g.Taskset(r, util)
			if err != nil {
				continue
			}
			corpus = append(corpus, ts)
		}
	}
	if len(corpus) < 10 {
		t.Fatalf("corpus too small: %d tasksets", len(corpus))
	}
	// Task IDs need not be dense or in slice order; an engine indexing
	// per-task state by ID instead of position fails on this member.
	return append(corpus, sparseIDs(t, corpus[0]))
}

// sparseIDs returns a copy of ts whose task IDs are sparse (3 + 7*id, all
// beyond the task count) and whose tasks are listed in reverse order.
// Priorities are explicit in the copy, so the analyses see the same tasks.
func sparseIDs(t *testing.T, ts *model.Taskset) *model.Taskset {
	t.Helper()
	raw, err := json.Marshal(ts)
	if err != nil {
		t.Fatal(err)
	}
	var out model.Taskset
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	slices.Reverse(out.Tasks)
	for _, task := range out.Tasks {
		task.ID = 3 + 7*task.ID
	}
	if err := out.Finalize(); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestCollapsedEPMatchesNaiveReference is the regression gate for the
// signature-collapsed engine: over a generated corpus, the full pipeline
// (partitioning + analysis) must return bit-identical verdicts, WCRTs and
// partition rounds to the per-path reference, and so must the raw WCRTs on
// the final partition.
func TestCollapsedEPMatchesNaiveReference(t *testing.T) {
	for ci, ts := range equivalenceCorpus(t) {
		fast := partition.Algorithm1(ts, NewDPCPp(ts, DefaultPathCap, false), partition.WFD)
		slow := partition.Algorithm1(ts, &naiveEP{NewDPCPp(ts, DefaultPathCap, false)}, partition.WFD)

		if fast.Schedulable != slow.Schedulable {
			t.Errorf("corpus %d: verdict %v != reference %v", ci, fast.Schedulable, slow.Schedulable)
			continue
		}
		if fast.Rounds != slow.Rounds {
			t.Errorf("corpus %d: rounds %d != reference %d", ci, fast.Rounds, slow.Rounds)
		}
		if !reflect.DeepEqual(fast.WCRT, slow.WCRT) {
			t.Errorf("corpus %d: WCRT maps diverge:\n fast: %v\n ref:  %v", ci, fast.WCRT, slow.WCRT)
		}
		if fast.Partition == nil || slow.Partition == nil {
			continue
		}
		// Direct per-task comparison on one fixed partition.
		w1 := NewDPCPp(ts, DefaultPathCap, false).WCRTs(fast.Partition)
		w2 := (&naiveEP{NewDPCPp(ts, DefaultPathCap, false)}).WCRTs(fast.Partition)
		if !reflect.DeepEqual(w1, w2) {
			t.Errorf("corpus %d: per-partition WCRTs diverge:\n fast: %v\n ref:  %v", ci, w1, w2)
		}
	}
}

// TestCollapsedEPMatchesNaiveUnderTightCaps exercises the EN fallback
// boundary: caps below, at, and above the path count of a diamond DAG.
func TestCollapsedEPMatchesNaiveUnderTightCaps(t *testing.T) {
	ts := model.NewTaskset(4, 1)
	task := model.NewTask(0, 10*rt.Millisecond, 10*rt.Millisecond)
	prev := task.AddVertex(10 * rt.Microsecond)
	for i := 0; i < 5; i++ {
		a := task.AddVertex(20 * rt.Microsecond)
		b := task.AddVertex(30 * rt.Microsecond)
		join := task.AddVertex(10 * rt.Microsecond)
		task.AddEdge(prev, a)
		task.AddEdge(prev, b)
		task.AddEdge(a, join)
		task.AddEdge(b, join)
		prev = join
	}
	task.AddRequest(0, 0, 2, 5*rt.Microsecond)
	ts.Add(task)
	other := model.NewTask(1, 5*rt.Millisecond, 5*rt.Millisecond)
	vo := other.AddVertex(100 * rt.Microsecond)
	other.AddRequest(vo, 0, 1, 5*rt.Microsecond)
	ts.Add(other)
	if err := ts.Finalize(); err != nil {
		t.Fatal(err)
	}
	for _, cap := range []int{4, 31, 32, 33, 1024} {
		fast := partition.Algorithm1(ts, NewDPCPp(ts, cap, false), partition.WFD)
		slow := partition.Algorithm1(ts, &naiveEP{NewDPCPp(ts, cap, false)}, partition.WFD)
		if fast.Schedulable != slow.Schedulable || !reflect.DeepEqual(fast.WCRT, slow.WCRT) {
			t.Errorf("cap %d: fast=%v %v ref=%v %v", cap,
				fast.Schedulable, fast.WCRT, slow.Schedulable, slow.WCRT)
		}
	}
}

// TestPathViewsCachedAcrossRounds guards the analyzer-level view cache: the
// second request for a task's views must not allocate (beyond the map
// lookup) or recompute.
func TestPathViewsCachedAcrossRounds(t *testing.T) {
	ts := handSet(t)
	a := NewDPCPp(ts, DefaultPathCap, false)
	task := ts.Task(0)
	first := a.pathViews(task)
	allocs := testing.AllocsPerRun(100, func() {
		a.pathViews(task)
	})
	if allocs > 0 {
		t.Errorf("cached pathViews allocates %v per call, want 0", allocs)
	}
	second := a.pathViews(task)
	if &first[0] != &second[0] {
		t.Error("cached pathViews returned a different slice")
	}
}
