package partition

import (
	"strings"
	"testing"

	"dpcpp/internal/model"
	"dpcpp/internal/rt"
)

// stubAnalyzer returns fixed WCRTs, or deadline-misses for tasks whose
// cluster is smaller than need[id].
type stubAnalyzer struct {
	need map[rt.TaskID]int
}

func (s stubAnalyzer) WCRTs(p *Partition) map[rt.TaskID]rt.Time {
	out := make(map[rt.TaskID]rt.Time)
	for _, t := range p.TS.Tasks {
		if s.need != nil && p.NumProcs(t.ID) < s.need[t.ID] {
			out[t.ID] = rt.Infinity
		} else {
			out[t.ID] = t.Deadline / 2
		}
	}
	return out
}

// heavyTask builds a parallel task with C = factor*D spread over width
// parallel vertices (no edges), optionally using resource q.
func heavyTask(id rt.TaskID, period rt.Time, width int, factor float64,
	q rt.ResourceID, nReq int, cs rt.Time) *model.Task {

	t := model.NewTask(id, period, period)
	total := rt.Time(factor * float64(period))
	per := total / rt.Time(width)
	for i := 0; i < width; i++ {
		t.AddVertex(per)
	}
	if nReq > 0 {
		t.AddRequest(0, q, nReq, cs)
	}
	return t
}

func partitionSet(t *testing.T, m int) *model.Taskset {
	t.Helper()
	ts := model.NewTaskset(m, 2)
	// Two heavy tasks sharing l0; l1 local to task 0.
	t0 := heavyTask(0, 1000*rt.Microsecond, 10, 2.0, 0, 2, 10*rt.Microsecond)
	t0.AddRequest(1, 1, 1, 5*rt.Microsecond)
	ts.Add(t0)
	ts.Add(heavyTask(1, 2000*rt.Microsecond, 10, 3.0, 0, 4, 20*rt.Microsecond))
	if err := ts.Finalize(); err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestInitialProcs(t *testing.T) {
	ts := partitionSet(t, 16)
	// Task 0: C = 2000us, L* = 200us, D = 1000us:
	// ceil((2000-200)/(1000-200)) = ceil(2.25) = 3.
	m0, err := InitialProcs(ts.Task(0))
	if err != nil || m0 != 3 {
		t.Errorf("InitialProcs(task0) = %d, %v; want 3", m0, err)
	}
	// Task 1: C = 6000us, L* = 600us, D = 2000us:
	// ceil(5400/1400) = 4.
	m1, err := InitialProcs(ts.Task(1))
	if err != nil || m1 != 4 {
		t.Errorf("InitialProcs(task1) = %d, %v; want 4", m1, err)
	}
	// A light task (C = L* = 5us <= D = 10us) still owns one processor:
	// ceil((5-5)/(10-5)) = 0, raised to 1.
	light := model.NewTask(2, 10*rt.Microsecond, 10*rt.Microsecond)
	light.AddVertex(5 * rt.Microsecond)
	if err := light.Finalize(0); err != nil {
		t.Fatal(err)
	}
	if m, err := InitialProcs(light); err != nil || m != 1 {
		t.Errorf("InitialProcs(light) = %d, %v; want 1", m, err)
	}
}

func TestInitialProcsRejectsInfeasibleChain(t *testing.T) {
	task := model.NewTask(0, 10*rt.Microsecond, 10*rt.Microsecond)
	a := task.AddVertex(6 * rt.Microsecond)
	b := task.AddVertex(6 * rt.Microsecond)
	task.AddEdge(a, b) // L* = 12 > D = 10
	if err := task.Finalize(0); err != nil {
		t.Fatal(err)
	}
	if _, err := InitialProcs(task); err == nil {
		t.Error("InitialProcs accepted task with L* >= D")
	}
}

func TestAssignAndUnassigned(t *testing.T) {
	ts := partitionSet(t, 8)
	p := New(ts)
	if got := p.Unassigned(); got != 8 {
		t.Fatalf("Unassigned = %d, want 8", got)
	}
	if !p.Assign(0, 3) {
		t.Fatal("Assign(0,3) failed")
	}
	if got := p.NumProcs(0); got != 3 {
		t.Errorf("NumProcs(0) = %d, want 3", got)
	}
	if got := p.Unassigned(); got != 5 {
		t.Errorf("Unassigned = %d, want 5", got)
	}
	if p.Assign(1, 6) {
		t.Error("Assign(1,6) succeeded with only 5 free")
	}
	if !p.Assign(1, 5) {
		t.Error("Assign(1,5) failed")
	}
	for k := 0; k < 8; k++ {
		if p.owner[rt.ProcID(k)] < 0 {
			t.Errorf("processor %d unowned after full assignment", k)
		}
	}
}

func TestPlaceAndClearResources(t *testing.T) {
	ts := partitionSet(t, 8)
	p := New(ts)
	p.Assign(0, 4)
	p.PlaceResource(0, 2)
	if got := p.ResourceProc(0); got != 2 {
		t.Errorf("ResourceProc(0) = %d, want 2", got)
	}
	if got := p.ResourcesOn(2); len(got) != 1 || got[0] != 0 {
		t.Errorf("ResourcesOn(2) = %v", got)
	}
	// Re-placing moves the resource.
	p.PlaceResource(0, 3)
	if len(p.ResourcesOn(2)) != 0 || p.ResourceProc(0) != 3 {
		t.Error("re-placement did not move the resource")
	}
	p.ClearResources()
	if p.ResourceProc(0) != rt.NoProc || len(p.ResourcesOn(3)) != 0 {
		t.Error("ClearResources left residue")
	}
}

func TestCoLocatedAndClusterResources(t *testing.T) {
	ts := partitionSet(t, 8)
	p := New(ts)
	p.Assign(0, 2) // procs 0,1
	p.Assign(1, 2) // procs 2,3
	p.PlaceResource(0, 0)
	p.PlaceResource(1, 0)
	// The paper's Phi^p(l_q): the resources sharing q's processor.
	co := p.ResourcesOn(p.ResourceProc(0))
	if len(co) != 2 {
		t.Errorf("co-located with l0 = %v, want two resources", co)
	}
	// The paper's Phi^p(tau_i): the resources on the task's cluster.
	cr := p.AppendClusterResources(nil, 0)
	if len(cr) != 2 {
		t.Errorf("cluster resources of task0 = %v, want both resources", cr)
	}
	if got := p.AppendClusterResources(nil, 1); len(got) != 0 {
		t.Errorf("cluster resources of task1 = %v, want empty", got)
	}
}

func TestAlgorithm1SchedulableImmediately(t *testing.T) {
	ts := partitionSet(t, 16)
	res := Algorithm1(ts, stubAnalyzer{}, WFD)
	if !res.Schedulable {
		t.Fatalf("unschedulable: %s", res.Reason)
	}
	if res.Rounds != 1 {
		t.Errorf("Rounds = %d, want 1", res.Rounds)
	}
	// Initial federated sizes: 3 and 4.
	if res.Partition.NumProcs(0) != 3 || res.Partition.NumProcs(1) != 4 {
		t.Errorf("cluster sizes = %d, %d; want 3, 4",
			res.Partition.NumProcs(0), res.Partition.NumProcs(1))
	}
	// The global resource must be placed somewhere.
	if res.Partition.ResourceProc(0) == rt.NoProc {
		t.Error("global resource l0 unplaced")
	}
	// The local resource must not be placed.
	if res.Partition.ResourceProc(1) != rt.NoProc {
		t.Error("local resource l1 was placed on a processor")
	}
}

func TestAlgorithm1Augments(t *testing.T) {
	ts := partitionSet(t, 16)
	// Task 1 needs 6 processors (initial gives 4): two augmentation rounds.
	res := Algorithm1(ts, stubAnalyzer{need: map[rt.TaskID]int{1: 6}}, WFD)
	if !res.Schedulable {
		t.Fatalf("unschedulable: %s", res.Reason)
	}
	if res.Partition.NumProcs(1) != 6 {
		t.Errorf("task1 cluster = %d, want 6", res.Partition.NumProcs(1))
	}
	if res.Rounds != 3 {
		t.Errorf("Rounds = %d, want 3", res.Rounds)
	}
}

func TestAlgorithm1ExhaustsProcessors(t *testing.T) {
	ts := partitionSet(t, 8)
	// 3 + 4 initial leaves one spare; demanding 7 for task 0 must fail.
	res := Algorithm1(ts, stubAnalyzer{need: map[rt.TaskID]int{0: 7}}, WFD)
	if res.Schedulable {
		t.Fatal("schedulable despite impossible demand")
	}
	if !strings.Contains(res.Reason, "no processors remain") {
		t.Errorf("Reason = %q", res.Reason)
	}
}

func TestAlgorithm1TooFewProcessorsInitially(t *testing.T) {
	ts := partitionSet(t, 4) // needs 3 + 4
	res := Algorithm1(ts, stubAnalyzer{}, WFD)
	if res.Schedulable {
		t.Fatal("schedulable despite insufficient processors")
	}
	if !strings.Contains(res.Reason, "initial assignment") {
		t.Errorf("Reason = %q", res.Reason)
	}
}

func TestIterativeFederated(t *testing.T) {
	ts := partitionSet(t, 16)
	res := IterativeFederated(ts, stubAnalyzer{need: map[rt.TaskID]int{0: 5}})
	if !res.Schedulable {
		t.Fatalf("unschedulable: %s", res.Reason)
	}
	if res.Partition.NumProcs(0) != 5 {
		t.Errorf("task0 cluster = %d, want 5", res.Partition.NumProcs(0))
	}
	// No resource placement happens in the federated baselines.
	if res.Partition.ResourceProc(0) != rt.NoProc {
		t.Error("IterativeFederated placed a resource")
	}
}

// wfdSet builds three heavy tasks with distinct slack so WFD placement is
// predictable, and several global resources with distinct utilizations.
func wfdSet(t *testing.T) *model.Taskset {
	t.Helper()
	ts := model.NewTaskset(16, 3)
	// All three tasks share all three resources (making them global).
	mk := func(id rt.TaskID, period rt.Time, factor float64) *model.Task {
		task := heavyTask(id, period, 20, factor, 0, 1, rt.Microsecond)
		task.AddRequest(1, 1, 2, rt.Microsecond)
		task.AddRequest(2, 2, 3, rt.Microsecond)
		return task
	}
	ts.Add(mk(0, 1000*rt.Microsecond, 1.5))
	ts.Add(mk(1, 1000*rt.Microsecond, 2.5))
	ts.Add(mk(2, 1000*rt.Microsecond, 3.5))
	if err := ts.Finalize(); err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestWFDPlacesOnMaxSlackCluster(t *testing.T) {
	ts := wfdSet(t)
	res := Algorithm1(ts, stubAnalyzer{}, WFD)
	if !res.Schedulable {
		t.Fatalf("unschedulable: %s", res.Reason)
	}
	p := res.Partition
	// Initial clusters: ceil((C-L*)/(D-L*)) with L* = one vertex:
	// task 0: ceil(1425/925) = 2, slack 0.5;
	// task 1: ceil(2375/875) = 3, slack 0.5;
	// task 2: ceil(3325/825) = 5, slack 1.5 (max).
	// Resource utilizations are microscopic, so worst-fit sends every
	// resource to task 2's cluster — but onto distinct processors.
	procsSeen := map[rt.ProcID]bool{}
	for q := 0; q < 3; q++ {
		k := p.ResourceProc(rt.ResourceID(q))
		if k == rt.NoProc {
			t.Fatalf("resource %d unplaced", q)
		}
		if owner := p.owner[k]; owner != 2 {
			t.Errorf("resource %d placed on task %d's cluster, want max-slack task 2", q, owner)
		}
		if procsSeen[k] {
			t.Errorf("resource %d stacked on already-used processor %d", q, k)
		}
		procsSeen[k] = true
	}
}

func TestFFDPlacesOnFirstFit(t *testing.T) {
	ts := wfdSet(t)
	res := Algorithm1(ts, stubAnalyzer{}, FFD)
	if !res.Schedulable {
		t.Fatalf("unschedulable: %s", res.Reason)
	}
	p := res.Partition
	// FFD drops everything onto the first cluster while it has room; the
	// resource utilizations here are tiny, so all three land on task 0's
	// cluster.
	for q := 0; q < 3; q++ {
		k := p.ResourceProc(rt.ResourceID(q))
		if p.owner[k] != 0 {
			t.Errorf("FFD placed resource %d on task %d's cluster, want task 0",
				q, p.owner[k])
		}
	}
}

func TestWFDBalancesProcessorsWithinCluster(t *testing.T) {
	// One heavy task with a big cluster and many global resources shared
	// with a second task: resources on the same cluster must spread over
	// distinct processors (min-utilization processor rule).
	ts := model.NewTaskset(12, 4)
	t0 := heavyTask(0, 1000*rt.Microsecond, 20, 4.0, 0, 1, rt.Microsecond)
	for q := 1; q < 4; q++ {
		t0.AddRequest(rt.VertexID(q), rt.ResourceID(q), 1, rt.Microsecond)
	}
	ts.Add(t0)
	t1 := heavyTask(1, 500*rt.Microsecond, 20, 1.2, 0, 1, rt.Microsecond)
	for q := 1; q < 4; q++ {
		t1.AddRequest(rt.VertexID(q), rt.ResourceID(q), 1, rt.Microsecond)
	}
	ts.Add(t1)
	if err := ts.Finalize(); err != nil {
		t.Fatal(err)
	}
	res := Algorithm1(ts, stubAnalyzer{}, WFD)
	if !res.Schedulable {
		t.Fatalf("unschedulable: %s", res.Reason)
	}
	p := res.Partition
	perProc := map[rt.ProcID]int{}
	perCluster := map[rt.TaskID]int{}
	for q := 0; q < 4; q++ {
		k := p.ResourceProc(rt.ResourceID(q))
		perProc[k]++
		perCluster[p.owner[k]]++
	}
	for k, c := range perProc {
		// Each cluster receiving r resources over >= r processors must
		// never stack two resources on one processor.
		if c > 1 && p.NumProcs(p.owner[k]) >= perCluster[p.owner[k]] {
			t.Errorf("processor %d received %d resources despite free siblings", k, c)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	ts := partitionSet(t, 8)
	p := New(ts)
	p.Assign(0, 2)
	p.PlaceResource(0, 0)
	c := p.Clone()
	c.Assign(1, 2)
	c.PlaceResource(0, 1)
	if p.NumProcs(1) != 0 {
		t.Error("Clone shares cluster state")
	}
	if p.ResourceProc(0) != 0 {
		t.Error("Clone shares resource state")
	}
}

func TestEqualAssignment(t *testing.T) {
	ts := partitionSet(t, 16)
	a := Algorithm1(ts, stubAnalyzer{}, WFD).Partition
	b := Algorithm1(ts, stubAnalyzer{}, WFD).Partition
	if !a.EqualAssignment(a) {
		t.Error("partition not equal to itself")
	}
	if !a.EqualAssignment(b) {
		t.Error("identical Algorithm1 runs produced unequal assignments")
	}
	if a.EqualAssignment(nil) {
		t.Error("partition equal to nil")
	}
	// A different augmentation outcome (task 1 grown to 6 processors) is a
	// different assignment.
	c := Algorithm1(ts, stubAnalyzer{need: map[rt.TaskID]int{1: 6}}, WFD).Partition
	if a.EqualAssignment(c) {
		t.Error("distinct cluster sizes reported equal")
	}
	// Mutating resource placement alone must break equality: the analysis
	// iterates each processor's resource list in order.
	d := b.Clone()
	if q := d.ResourceProc(0); q != rt.NoProc {
		d.ClearResources()
		d.PlaceResource(0, (q+1)%16)
		if a.EqualAssignment(d) {
			t.Error("distinct resource placement reported equal")
		}
	}
}
