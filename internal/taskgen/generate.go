package taskgen

import (
	"fmt"
	"math"
	"math/rand"

	"dpcpp/internal/model"
	"dpcpp/internal/rt"
)

// Generator synthesizes tasksets for one scenario. It is deterministic
// given the *rand.Rand it is handed.
type Generator struct {
	Scenario Scenario

	// MaxCSFraction caps the total critical-section workload of a task at
	// this fraction of its WCET; request counts are reduced when the drawn
	// parameters would exceed it (the paper enforces the same through its
	// "C_{i,x} >= sum N_{i,x,q} L_{i,q}" plausibility rule). Default 0.5.
	MaxCSFraction float64

	// StructRetries bounds how many DAG structures are attempted per task
	// before giving up (the edge probability decays on every retry, which
	// widens the DAG and always converges). Default 64.
	StructRetries int
}

// NewGenerator returns a Generator with the paper's defaults.
func NewGenerator(s Scenario) *Generator {
	return &Generator{Scenario: s.DefaultStructure(), MaxCSFraction: 0.5, StructRetries: 64}
}

// Taskset generates one taskset with the given total utilization.
func (g *Generator) Taskset(r *rand.Rand, totalUtil float64) (*model.Taskset, error) {
	s := g.Scenario
	nr := UniformInt(r, s.NumRes.Lo, s.NumRes.Hi)
	utils, err := g.splitUtilization(r, totalUtil)
	if err != nil {
		return nil, err
	}

	ts := model.NewTaskset(s.M, nr)
	for i, u := range utils {
		task, err := g.task(r, rt.TaskID(i), u, nr)
		if err != nil {
			return nil, fmt.Errorf("taskgen: task %d (U=%.3f): %w", i, u, err)
		}
		ts.Add(task)
	}
	if err := ts.Finalize(); err != nil {
		return nil, err
	}
	return ts, nil
}

// splitUtilization draws per-task utilizations in (1, 2*UAvg] summing to
// totalUtil via RandFixedSum. The number of tasks follows the paper: it is
// determined by UAvg and the total utilization. Totals at or below 1 yield
// a single task with exactly that utilization.
func (g *Generator) splitUtilization(r *rand.Rand, totalUtil float64) ([]float64, error) {
	if totalUtil <= 0 {
		return nil, fmt.Errorf("taskgen: non-positive total utilization %g", totalUtil)
	}
	lo := 1.0 + 1e-6
	hi := 2 * g.Scenario.UAvg
	if hi <= lo {
		return nil, fmt.Errorf("taskgen: UAvg %g leaves empty utilization range", g.Scenario.UAvg)
	}
	if totalUtil <= lo {
		return []float64{totalUtil}, nil
	}
	n := int(math.Round(totalUtil / g.Scenario.UAvg))
	nMin := int(math.Ceil(totalUtil / hi))
	nMax := int(math.Floor(totalUtil / lo))
	if n < nMin {
		n = nMin
	}
	if n > nMax {
		n = nMax
	}
	if n < 1 {
		n = 1
	}
	if n == 1 {
		return []float64{totalUtil}, nil
	}
	return RandFixedSum(r, n, totalUtil, lo, hi)
}

// resourceDraw is the per-task resource parameterization before placement.
type resourceDraw struct {
	q  rt.ResourceID
	n  int64   // N_{i,q}
	cs rt.Time // L_{i,q}
}

// task generates one DAG task with utilization u.
func (g *Generator) task(r *rand.Rand, id rt.TaskID, u float64, nr int) (*model.Task, error) {
	s := g.Scenario
	periodMS := LogUniform(r, float64(s.PeriodLo)/float64(rt.Millisecond),
		float64(s.PeriodHi)/float64(rt.Millisecond))
	period := rt.Time(math.Round(periodMS * float64(rt.Millisecond)))
	deadline := period
	wcet := rt.Time(math.Round(u * float64(period)))
	nVerts := UniformInt(r, s.VertsRange.Lo, s.VertsRange.Hi)

	draws := g.drawResources(r, nr, wcet, deadline, nVerts)

	p := s.EdgeProb
	var lastErr error
	for attempt := 0; attempt < g.StructRetries; attempt++ {
		task, err := g.buildDAG(r, id, period, deadline, wcet, nVerts, p, draws, nr)
		if err == nil {
			return task, nil
		}
		lastErr = err
		p *= 0.7 // widen the DAG; h[x] -> 1 as p -> 0, which is always feasible
	}
	return nil, fmt.Errorf("no feasible DAG structure after %d attempts: %w",
		g.StructRetries, lastErr)
}

// drawResources draws which resources the task uses and with what
// parameters, then scales the request counts down so the total
// critical-section workload fits within MaxCSFraction of the WCET and
// within a quarter of the deadline (so that the longest path can always
// stay below D/2 even when requests concentrate).
func (g *Generator) drawResources(r *rand.Rand, nr int, wcet, deadline rt.Time, nVerts int) []resourceDraw {
	s := g.Scenario
	var draws []resourceDraw
	for q := 0; q < nr; q++ {
		if r.Float64() >= s.PAccess {
			continue
		}
		n := int64(UniformInt(r, s.NReq.Lo, s.NReq.Hi))
		cs := s.CSLen.Lo + rt.Time(r.Int63n(int64(s.CSLen.Hi-s.CSLen.Lo)+1))
		draws = append(draws, resourceDraw{q: rt.ResourceID(q), n: n, cs: cs})
	}

	budget := rt.Time(g.MaxCSFraction * float64(wcet))
	if q := deadline / 4; q < budget {
		budget = q
	}
	total := func() rt.Time {
		var t rt.Time
		for _, d := range draws {
			t += rt.SatMul(d.n, d.cs)
		}
		return t
	}
	// Proportional reduction of request counts, keeping each N >= 1.
	if tot := total(); tot > budget && tot > 0 {
		ratio := float64(budget) / float64(tot)
		for i := range draws {
			n := int64(math.Floor(float64(draws[i].n) * ratio))
			if n < 1 {
				n = 1
			}
			draws[i].n = n
		}
	}
	// If even one request per resource exceeds the budget, drop resources
	// (random victims) until it fits.
	for total() > budget && len(draws) > 0 {
		i := r.Intn(len(draws))
		draws = append(draws[:i], draws[i+1:]...)
	}
	return draws
}

// diEdge is a directed precedence edge between vertex indices; from < to,
// so vertex indices always form a topological order.
type diEdge struct{ from, to int }

// buildDAG builds the Erdős–Rényi structure and hands it to assembleTask.
func (g *Generator) buildDAG(r *rand.Rand, id rt.TaskID, period, deadline, wcet rt.Time,
	nVerts int, edgeProb float64, draws []resourceDraw, nr int) (*model.Task, error) {

	var edges []diEdge
	for i := 0; i < nVerts; i++ {
		for j := i + 1; j < nVerts; j++ {
			if r.Float64() < edgeProb {
				edges = append(edges, diEdge{i, j})
			}
		}
	}
	return assembleTask(r, id, period, deadline, wcet, nVerts, edges, draws, nr)
}

// chainHeights returns h[x] = the maximum number of vertices on any chain
// through x, for a DAG whose edges go from lower to higher vertex index.
func chainHeights(nVerts int, edges []diEdge) []int {
	succ := make([][]int, nVerts)
	pred := make([][]int, nVerts)
	for _, e := range edges {
		succ[e.from] = append(succ[e.from], e.to)
		pred[e.to] = append(pred[e.to], e.from)
	}
	fwd := make([]int, nVerts) // longest hop chain ending at x (inclusive)
	bwd := make([]int, nVerts) // longest hop chain starting at x (inclusive)
	for x := 0; x < nVerts; x++ {
		fwd[x] = 1
		for _, p := range pred[x] {
			if fwd[p]+1 > fwd[x] {
				fwd[x] = fwd[p] + 1
			}
		}
	}
	h := make([]int, nVerts)
	for x := nVerts - 1; x >= 0; x-- {
		bwd[x] = 1
		for _, s := range succ[x] {
			if bwd[s]+1 > bwd[x] {
				bwd[x] = bwd[s] + 1
			}
		}
		h[x] = fwd[x] + bwd[x] - 1
	}
	return h
}

// vertexCaps returns the per-vertex WCET caps (D/2 - margin)/h[x] and their
// sum; a non-positive cap base yields nil.
func vertexCaps(nVerts int, edges []diEdge, deadline rt.Time) (caps []rt.Time, capSum rt.Time) {
	margin := rt.Time(2 * nVerts) // nanoseconds of slack for rounding fixes
	capBase := deadline/2 - margin
	if capBase <= 0 {
		return nil, 0
	}
	h := chainHeights(nVerts, edges)
	caps = make([]rt.Time, nVerts)
	for x := 0; x < nVerts; x++ {
		caps[x] = capBase / rt.Time(h[x])
		capSum += caps[x]
	}
	return caps, capSum
}

// assembleTask distributes WCET and requests over a fixed DAG structure
// subject to the plausibility constraints. The construction is correct by
// design:
//
//   - h[x] = the maximum number of vertices on any chain through x. Every
//     vertex WCET is capped at (D/2 - margin)/h[x], so any complete path
//     lambda satisfies L(lambda) <= sum (D/2 - margin)/h[x] < D/2 because
//     h[x] >= |lambda| for every x on lambda.
//   - Request units are only placed on vertices whose remaining cap can
//     absorb the critical section, so C_{i,x} >= sum_q N_{i,x,q} L_{i,q}.
//
// Edges must go from lower to higher vertex index. Both the paper-grid
// Generator and the adversarial generators build on this assembly.
func assembleTask(r *rand.Rand, id rt.TaskID, period, deadline, wcet rt.Time,
	nVerts int, edges []diEdge, draws []resourceDraw, nr int) (*model.Task, error) {

	caps, capSum := vertexCaps(nVerts, edges, deadline)
	if caps == nil {
		return nil, fmt.Errorf("deadline %d too short for %d vertices", deadline, nVerts)
	}
	if capSum < wcet {
		return nil, fmt.Errorf("vertex caps sum %d < WCET %d (chains too long)", capSum, wcet)
	}

	// Place request units on vertices with room for the critical section.
	csNeed := make([]rt.Time, nVerts)
	placed := make([]map[rt.ResourceID]int, nVerts)
	for _, d := range draws {
		for unit := int64(0); unit < d.n; unit++ {
			x, ok := pickWithRoom(r, caps, csNeed, d.cs)
			if !ok {
				break // drop remaining units of this resource
			}
			csNeed[x] += d.cs
			if placed[x] == nil {
				placed[x] = make(map[rt.ResourceID]int)
			}
			placed[x][d.q]++
		}
	}
	var totalCS rt.Time
	for _, c := range csNeed {
		totalCS += c
	}
	if totalCS > wcet {
		return nil, fmt.Errorf("placed CS workload %d exceeds WCET %d", totalCS, wcet)
	}

	// Waterfill the non-critical budget under the per-vertex caps.
	alloc := waterfill(r, caps, csNeed, wcet-totalCS)
	if alloc == nil {
		return nil, fmt.Errorf("waterfill failed: insufficient slack")
	}

	task := model.NewTask(id, period, deadline)
	for x := 0; x < nVerts; x++ {
		w := csNeed[x] + alloc[x]
		if w <= 0 {
			w = 1 // the cap margin guarantees room for this
		}
		task.AddVertex(w)
	}
	for _, e := range edges {
		task.AddEdge(rt.VertexID(e.from), rt.VertexID(e.to))
	}
	for x, reqs := range placed {
		for q, n := range reqs {
			cs := rt.Time(0)
			for _, d := range draws {
				if d.q == q {
					cs = d.cs
					break
				}
			}
			task.AddRequest(rt.VertexID(x), q, n, cs)
		}
	}
	if err := task.Finalize(nr); err != nil {
		return nil, err
	}
	if task.LongestPath() >= deadline/2 {
		return nil, fmt.Errorf("L*=%d >= D/2=%d despite caps", task.LongestPath(), deadline/2)
	}
	return task, nil
}

// pickWithRoom picks a uniformly random vertex whose cap can absorb one more
// critical section of length cs. It counts the candidates, draws the k-th
// with one r.Intn call and walks to it, so it allocates nothing and
// consumes the random stream exactly as drawing from a candidate slice
// would.
func pickWithRoom(r *rand.Rand, caps, csNeed []rt.Time, cs rt.Time) (int, bool) {
	n := 0
	for x := range caps {
		if csNeed[x]+cs <= caps[x] {
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	k := r.Intn(n)
	for x := range caps {
		if csNeed[x]+cs <= caps[x] {
			if k == 0 {
				return x, true
			}
			k--
		}
	}
	panic("taskgen: pickWithRoom candidate count changed mid-walk")
}

// waterfill distributes budget across vertices with random proportions,
// clamping each vertex at caps[x]-csNeed[x] and redistributing the excess
// until the budget is exhausted. Returns nil if the total slack cannot
// absorb the budget.
func waterfill(r *rand.Rand, caps, csNeed []rt.Time, budget rt.Time) []rt.Time {
	n := len(caps)
	alloc := make([]rt.Time, n)
	slack := func(x int) rt.Time { return caps[x] - csNeed[x] - alloc[x] }

	var totalSlack rt.Time
	for x := 0; x < n; x++ {
		totalSlack += slack(x)
	}
	if totalSlack < budget {
		return nil
	}

	pool := budget
	for pool > 0 {
		var active []int
		for x := 0; x < n; x++ {
			if slack(x) > 0 {
				active = append(active, x)
			}
		}
		if len(active) == 0 {
			return nil // cannot happen given the slack check above
		}
		weights := make([]float64, len(active))
		var wsum float64
		for i := range active {
			weights[i] = r.ExpFloat64() + 0.1
			wsum += weights[i]
		}
		assigned := rt.Time(0)
		for i, x := range active {
			share := rt.Time(float64(pool) * weights[i] / wsum)
			if i == len(active)-1 {
				share = pool - assigned
			}
			if s := slack(x); share > s {
				share = s
			}
			alloc[x] += share
			assigned += share
		}
		pool -= assigned
		if assigned == 0 {
			// Degenerate rounding: push the remainder one nanosecond at a
			// time into the first vertices with slack.
			for x := 0; x < n && pool > 0; x++ {
				d := slack(x)
				if d > pool {
					d = pool
				}
				alloc[x] += d
				pool -= d
			}
		}
	}
	return alloc
}
