// Package partition implements the task and resource partitioning of the
// DPCP-p paper (Sec. V): federated processor assignment with iterative
// augmentation and rollback (Algorithm 1), and worst-fit-decreasing
// placement of global resources onto processors by utilization slack
// (Algorithm 2). A first-fit-decreasing variant is provided as an ablation.
//
//schedlint:deterministic
package partition

import (
	"fmt"
	"sort"

	"dpcpp/internal/model"
	"dpcpp/internal/rt"
)

// Partition records which processors each task owns (its cluster) and on
// which processor each global resource is served by agents. Local
// resources are never placed (they execute within the owning task).
type Partition struct {
	TS *model.Taskset

	procs   map[rt.TaskID][]rt.ProcID   // cluster of each task
	owner   []rt.TaskID                 // owning task per processor
	resProc map[rt.ResourceID]rt.ProcID // placement of global resources
	resOn   map[rt.ProcID][]rt.ResourceID
}

// New returns an empty partition for the taskset.
func New(ts *model.Taskset) *Partition {
	p := &Partition{
		TS:      ts,
		procs:   make(map[rt.TaskID][]rt.ProcID),
		owner:   make([]rt.TaskID, ts.NumProcs),
		resProc: make(map[rt.ResourceID]rt.ProcID),
		resOn:   make(map[rt.ProcID][]rt.ResourceID),
	}
	for k := range p.owner {
		p.owner[k] = -1
	}
	return p
}

// Assign grants count additional processors to the task, taking the lowest
// unassigned processor IDs. It returns false when not enough processors
// remain.
func (p *Partition) Assign(id rt.TaskID, count int) bool {
	if count > p.Unassigned() {
		return false
	}
	for k, o := range p.owner {
		if count <= 0 {
			break
		}
		if o < 0 {
			p.owner[k] = id
			p.procs[id] = append(p.procs[id], rt.ProcID(k))
			count--
		}
	}
	return true
}

// Unassigned returns the number of processors no task owns.
func (p *Partition) Unassigned() int {
	n := 0
	for _, o := range p.owner {
		if o < 0 {
			n++
		}
	}
	return n
}

// Procs returns the cluster of the task.
func (p *Partition) Procs(id rt.TaskID) []rt.ProcID { return p.procs[id] }

// NumProcs returns m_i, the cluster size of the task.
func (p *Partition) NumProcs(id rt.TaskID) int { return len(p.procs[id]) }

// PlaceResource assigns global resource q to processor k.
func (p *Partition) PlaceResource(q rt.ResourceID, k rt.ProcID) {
	if old, ok := p.resProc[q]; ok {
		p.removeResOn(old, q)
	}
	p.resProc[q] = k
	p.resOn[k] = append(p.resOn[k], q)
}

func (p *Partition) removeResOn(k rt.ProcID, q rt.ResourceID) {
	lst := p.resOn[k]
	for i, x := range lst {
		if x == q {
			p.resOn[k] = append(lst[:i], lst[i+1:]...)
			return
		}
	}
}

// ClearResources removes every resource placement (Algorithm 1's rollback).
func (p *Partition) ClearResources() {
	p.resProc = make(map[rt.ResourceID]rt.ProcID)
	p.resOn = make(map[rt.ProcID][]rt.ResourceID)
}

// ResourceProc returns the processor serving global resource q, or NoProc
// when q is local or unplaced.
func (p *Partition) ResourceProc(q rt.ResourceID) rt.ProcID {
	if k, ok := p.resProc[q]; ok {
		return k
	}
	return rt.NoProc
}

// ResourcesOn returns the global resources placed on processor k
// (the paper's Phi(p_k)).
func (p *Partition) ResourcesOn(k rt.ProcID) []rt.ResourceID { return p.resOn[k] }

// AppendClusterResources appends the cluster's global resources to dst and
// returns the extended slice; analysis hot paths pass a reused buffer to
// stay allocation-free. Every resource lives on at most one processor, so
// the result never exceeds the taskset's resource count.
func (p *Partition) AppendClusterResources(dst []rt.ResourceID, id rt.TaskID) []rt.ResourceID {
	for _, k := range p.procs[id] {
		dst = append(dst, p.resOn[k]...)
	}
	return dst
}

// EqualAssignment reports whether p and o describe exactly the same
// assignment: the same processor owners, the same clusters in the same
// order, and the same resource placement (including each processor's
// resource order, which the analysis iterates).
// The incremental delta analyzer uses it to decide whether a candidate
// partition of a patched taskset matches the retained final partition of
// the base analysis — order-sensitive equality is what makes replaying the
// base computation bit-identical.
func (p *Partition) EqualAssignment(o *Partition) bool {
	if o == nil || len(p.owner) != len(o.owner) {
		return false
	}
	for k, id := range p.owner {
		if o.owner[k] != id {
			return false
		}
	}
	if len(p.procs) != len(o.procs) {
		return false
	}
	for id, ps := range p.procs {
		ops, ok := o.procs[id]
		if !ok || len(ops) != len(ps) {
			return false
		}
		for j, k := range ps {
			if ops[j] != k {
				return false
			}
		}
	}
	if len(p.resProc) != len(o.resProc) {
		return false
	}
	for q, k := range p.resProc {
		if ok2, have := o.resProc[q]; !have || ok2 != k {
			return false
		}
	}
	if len(p.resOn) != len(o.resOn) {
		return false
	}
	for k, res := range p.resOn {
		ores, ok := o.resOn[k]
		if !ok || len(ores) != len(res) {
			return false
		}
		for j, q := range res {
			if ores[j] != q {
				return false
			}
		}
	}
	return true
}

// CloneFor returns a deep copy of the partition bound to another taskset,
// which must have the same processor count and contain every task ID the
// partition mentions. The audit's WCET-scaling check uses it to evaluate an
// analyzer on an identical partition of a perturbed taskset (the partition
// only names task, processor and resource IDs, all of which a structure-
// preserving perturbation keeps).
func (p *Partition) CloneFor(ts *model.Taskset) (*Partition, error) {
	if ts.NumProcs != p.TS.NumProcs {
		return nil, fmt.Errorf("partition: CloneFor needs %d processors, taskset has %d",
			p.TS.NumProcs, ts.NumProcs)
	}
	if ts.NumResources != p.TS.NumResources {
		return nil, fmt.Errorf("partition: CloneFor needs %d resources, taskset has %d",
			p.TS.NumResources, ts.NumResources)
	}
	ids := make(map[rt.TaskID]bool, len(ts.Tasks))
	for _, t := range ts.Tasks {
		ids[t.ID] = true
	}
	for id := range p.procs {
		if !ids[id] {
			return nil, fmt.Errorf("partition: CloneFor target lacks task %d", id)
		}
	}
	c := p.Clone()
	c.TS = ts
	return c, nil
}

// Clone returns a deep copy (used by Algorithm 1 to restart cleanly).
func (p *Partition) Clone() *Partition {
	c := New(p.TS)
	copy(c.owner, p.owner)
	for id, ps := range p.procs {
		c.procs[id] = append([]rt.ProcID(nil), ps...)
	}
	for q, k := range p.resProc {
		c.resProc[q] = k
		c.resOn[k] = append(c.resOn[k], q)
	}
	return c
}

// InitialProcs returns the federated starting cluster size of Sec. V:
// ceil((C_i - L*_i)/(D_i - L*_i)), at least 1.
func InitialProcs(t *model.Task) (int, error) {
	num := t.WCET() - t.LongestPath()
	den := t.Deadline - t.LongestPath()
	if den <= 0 {
		return 0, fmt.Errorf("partition: task %d has L*=%s >= D=%s and can never meet its deadline",
			t.ID, rt.FormatTime(t.LongestPath()), rt.FormatTime(t.Deadline))
	}
	m := int(rt.CeilDiv(num, den))
	if m < 1 {
		m = 1
	}
	return m, nil
}

// Analyzer computes the worst-case response time of each task under a
// candidate partition; tasks must be analyzable in any order (the analysis
// itself walks priorities internally). Implemented by internal/analysis.
//
// An Analyzer may also implement UntilMissAnalyzer. Algorithm 1 reads a
// round's bounds in priority order only up to the first deadline miss: it
// grants that task one more processor and starts a new round, so the
// bounds below the miss are never read. While processors remain
// unassigned, the partitioning loops therefore ask an UntilMissAnalyzer
// only for that prefix. A round with no miss gets every bound either way.
// A round with no processor left always calls WCRTs: it is the final round
// whatever it finds, and its map becomes the Result.WCRT that callers
// serve and explain, so it must hold every task's bound.
type Analyzer interface {
	// WCRTs returns a response-time bound per task. A bound above the
	// task's deadline (or rt.Infinity) marks the task unschedulable under
	// this partition.
	//
	// The returned map may be analyzer-owned scratch, valid only until the
	// next WCRTs or WCRTsUntilMiss call on the same analyzer. The
	// partitioning loops below respect that lifetime and copy the map into
	// any Result they return.
	WCRTs(p *Partition) map[rt.TaskID]rt.Time
}

// UntilMissAnalyzer is an Analyzer that can stop a round at its first
// deadline miss (see Analyzer). Analyzers whose per-task bounds are cheap
// closed forms need not implement it.
type UntilMissAnalyzer interface {
	Analyzer
	// WCRTsUntilMiss returns the bounds WCRTs would return for the tasks
	// in descending priority order up to and including the first one whose
	// bound exceeds its deadline, and no bound for any task after it. With
	// no miss it returns every task's bound. The map's lifetime is that of
	// WCRTs' map.
	WCRTsUntilMiss(p *Partition) map[rt.TaskID]rt.Time
}

// copyWCRTs detaches a WCRT map from its (possibly scratch-owned) analyzer
// before it escapes into a long-lived Result.
func copyWCRTs(wcrts map[rt.TaskID]rt.Time) map[rt.TaskID]rt.Time {
	if wcrts == nil {
		return nil
	}
	out := make(map[rt.TaskID]rt.Time, len(wcrts))
	for id, r := range wcrts {
		out[id] = r
	}
	return out
}

// Result is the outcome of a partitioning run.
type Result struct {
	Schedulable bool
	Partition   *Partition
	WCRT        map[rt.TaskID]rt.Time
	Rounds      int    // outer iterations of Algorithm 1
	Reason      string // why the set was declared unschedulable
}

// PlacementHeuristic selects the resource-placement strategy.
type PlacementHeuristic int

const (
	// WFD is Algorithm 2: worst-fit decreasing by cluster utilization
	// slack, min-utilization processor within the cluster.
	WFD PlacementHeuristic = iota
	// FFD is the first-fit-decreasing ablation: resources go to the first
	// cluster (by index) with room, min-utilization processor within it.
	FFD
)

// Algorithm1 runs the paper's task-and-resource partitioning: initial
// federated assignment, worst-fit-decreasing resource placement, and
// schedulability-test-driven processor augmentation with rollback.
func Algorithm1(ts *model.Taskset, a Analyzer, heuristic PlacementHeuristic) Result {
	return augment(ts, a, func(p *Partition) bool { return placeResources(p, heuristic) })
}

// IterativeFederated performs the same processor-augmentation loop without
// resource placement; it drives the SPIN, LPP and FED-FP baselines, whose
// requests execute locally.
func IterativeFederated(ts *model.Taskset, a Analyzer) Result {
	return augment(ts, a, nil)
}

// augment is the augmentation loop behind Algorithm1 and
// IterativeFederated. Every task starts on InitialProcs processors of its
// own; each round re-places the global resources (place, nil for the
// resource-free baselines), analyzes, and grants one more processor to the
// highest-priority task that misses its deadline, until every task meets
// it or no processor remains. Rounds that still have a processor to grant
// stop at the first miss when the analyzer allows it (see Analyzer).
func augment(ts *model.Taskset, a Analyzer, place func(*Partition) bool) Result {
	um, _ := a.(UntilMissAnalyzer)
	p := New(ts)
	for _, t := range ts.Tasks {
		mi, err := InitialProcs(t)
		if err != nil {
			return Result{Partition: p, Reason: err.Error()}
		}
		if !p.Assign(t.ID, mi) {
			return Result{Partition: p, Reason: fmt.Sprintf(
				"not enough processors for initial assignment of task %d", t.ID)}
		}
	}

	byPrio := ts.ByPriorityDesc()
	rounds := 0
	for {
		rounds++
		if rounds > 4*ts.NumProcs+8 {
			// Algorithm 1 terminates within m-2n rounds; this guard catches
			// degenerate inputs.
			return Result{Partition: p, Rounds: rounds, Reason: "round limit exceeded"}
		}
		if place != nil {
			p.ClearResources()
			if !place(p) {
				return Result{Partition: p, Rounds: rounds,
					Reason: "infeasible global resource allocation"}
			}
		}
		var wcrts map[rt.TaskID]rt.Time
		if um != nil && p.Unassigned() > 0 {
			wcrts = um.WCRTsUntilMiss(p)
		} else {
			wcrts = a.WCRTs(p)
		}
		augmented := false
		for _, t := range byPrio {
			if wcrts[t.ID] <= t.Deadline {
				continue
			}
			if p.Unassigned() == 0 {
				// DPCP-p's reason quotes the failing bound; the
				// baselines' does not.
				reason := fmt.Sprintf("task %d misses deadline and no processors remain", t.ID)
				if place != nil {
					reason = fmt.Sprintf("task %d misses deadline (R=%s > D=%s) and no processors remain",
						t.ID, rt.FormatTime(wcrts[t.ID]), rt.FormatTime(t.Deadline))
				}
				return Result{Partition: p, WCRT: copyWCRTs(wcrts), Rounds: rounds, Reason: reason}
			}
			p.Assign(t.ID, 1)
			augmented = true
			break // rollback resources and retry (paper line 13-14)
		}
		if !augmented {
			return Result{Schedulable: true, Partition: p, WCRT: copyWCRTs(wcrts), Rounds: rounds}
		}
	}
}

// placeResources runs Algorithm 2 (WFD) or the FFD ablation. It returns
// false when some resource cannot fit in any cluster without exceeding its
// capacity.
func placeResources(p *Partition, heuristic PlacementHeuristic) bool {
	ts := p.TS
	globals := ts.GlobalResources()
	sort.SliceStable(globals, func(a, b int) bool {
		ua, ub := ts.ResourceUtilization(globals[a]), ts.ResourceUtilization(globals[b])
		if ua != ub {
			return ua > ub
		}
		return globals[a] < globals[b]
	})

	type cluster struct {
		task     *model.Task
		capacity float64
		util     float64
		procUtil map[rt.ProcID]float64
	}
	var clusters []*cluster
	for _, t := range ts.Tasks {
		procs := p.Procs(t.ID)
		if len(procs) == 0 {
			continue
		}
		c := &cluster{task: t, capacity: float64(len(procs)), util: t.Utilization(),
			procUtil: make(map[rt.ProcID]float64, len(procs))}
		for _, k := range procs {
			c.procUtil[k] = 0
		}
		clusters = append(clusters, c)
	}
	if len(clusters) == 0 {
		return len(globals) == 0
	}

	for _, q := range globals {
		uq := ts.ResourceUtilization(q)
		var chosen *cluster
		switch heuristic {
		case WFD:
			for _, c := range clusters {
				if chosen == nil || c.capacity-c.util > chosen.capacity-chosen.util {
					chosen = c
				}
			}
		case FFD:
			for _, c := range clusters {
				if c.util+uq <= c.capacity {
					chosen = c
					break
				}
			}
			if chosen == nil {
				chosen = clusters[0]
			}
		}
		if chosen.util+uq > chosen.capacity {
			return false
		}
		// Min resource-utilization processor within the cluster
		// (Algorithm 2 line 9), ties by processor ID for determinism.
		var bestProc rt.ProcID = rt.NoProc
		for _, k := range p.Procs(chosen.task.ID) {
			if bestProc == rt.NoProc || c2less(chosen.procUtil[k], k, chosen.procUtil[bestProc], bestProc) {
				bestProc = k
			}
		}
		p.PlaceResource(q, bestProc)
		chosen.procUtil[bestProc] += uq
		chosen.util += uq
	}
	return true
}

func c2less(u1 float64, k1 rt.ProcID, u2 float64, k2 rt.ProcID) bool {
	if u1 != u2 {
		return u1 < u2
	}
	return k1 < k2
}
