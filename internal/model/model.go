// Package model implements the system model of the DPCP-p paper (Sec. II):
// sporadic parallel tasks structured as directed acyclic graphs, shared
// resources protected by binary semaphores, and tasksets combining both.
//
// A Task is built incrementally (AddVertex / AddEdge / SetCSLen) and then
// sealed with Finalize, which validates the structure and precomputes the
// derived quantities the analyses need: total WCET, longest path length,
// per-task request counts, and topological order. A Taskset is sealed with
// its own Finalize, which classifies resources as local or global and
// assigns rate-monotonic priorities unless priorities were set explicitly.
//
//schedlint:deterministic
package model

import (
	"fmt"
	"sync"

	"dpcpp/internal/rt"
)

// Vertex is one node v_{i,x} of a task's DAG. Its WCET C_{i,x} includes the
// critical sections it executes; Requests[q] is N_{i,x,q}, the maximum
// number of requests the vertex issues to resource q.
type Vertex struct {
	ID       rt.VertexID           `json:"id"`
	WCET     rt.Time               `json:"wcet"`
	Requests map[rt.ResourceID]int `json:"requests,omitempty"`
}

// TotalRequests returns the number of requests the vertex issues across all
// resources.
func (v *Vertex) TotalRequests() int {
	n := 0
	for _, c := range v.Requests {
		n += c
	}
	return n
}

// Edge is a precedence constraint (From must finish before To may start).
type Edge struct {
	From rt.VertexID `json:"from"`
	To   rt.VertexID `json:"to"`
}

// Task is a sporadic DAG task tau_i.
type Task struct {
	ID       rt.TaskID   `json:"id"`
	Name     string      `json:"name,omitempty"`
	Period   rt.Time     `json:"period"`   // T_i, minimum inter-arrival time
	Deadline rt.Time     `json:"deadline"` // D_i <= T_i (constrained)
	Priority rt.Priority `json:"priority"` // larger = higher; unique in a set

	Vertices []*Vertex `json:"vertices"`
	Edges    []Edge    `json:"edges"`

	// CSLen[q] is L_{i,q}, the maximum critical-section length of tau_i on
	// resource q (0 when tau_i does not use q). Indexed by ResourceID and
	// sized by the taskset's resource count at Finalize time.
	CSLen []rt.Time `json:"cslen"`

	// Derived by Finalize.
	finalized   bool
	wcet        rt.Time       // C_i = sum of vertex WCETs
	longestPath rt.Time       // L*_i
	topo        []rt.VertexID // topological order
	succ        [][]rt.VertexID
	pred        [][]rt.VertexID
	nReq        []int64 // N_{i,q} per resource
	heads       []rt.VertexID
	tails       []rt.VertexID
	canon       []byte // canonical body (vertices/edges/CS), see hash.go

	// bounds memoizes ComputePathBounds; boundsOnce makes the first call
	// safe when several analyses of one taskset run concurrently.
	boundsOnce sync.Once
	bounds     *PathBounds
}

// NewTask returns an empty task with the given identity and timing.
func NewTask(id rt.TaskID, period, deadline rt.Time) *Task {
	return &Task{ID: id, Period: period, Deadline: deadline}
}

// AddVertex appends a vertex with the given WCET and returns its ID.
// Must be called before Finalize.
func (t *Task) AddVertex(wcet rt.Time) rt.VertexID {
	id := rt.VertexID(len(t.Vertices))
	t.Vertices = append(t.Vertices, &Vertex{ID: id, WCET: wcet})
	return id
}

// AddEdge appends a precedence edge. Must be called before Finalize.
func (t *Task) AddEdge(from, to rt.VertexID) {
	t.Edges = append(t.Edges, Edge{From: from, To: to})
}

// AddRequest records that vertex x issues n additional requests to resource
// q, each of length at most csLen. All requests of a task to one resource
// share the same maximum critical-section length L_{i,q}, as in the paper;
// csLen must therefore agree across calls for the same resource.
func (t *Task) AddRequest(x rt.VertexID, q rt.ResourceID, n int, csLen rt.Time) {
	v := t.Vertices[x]
	if v.Requests == nil {
		v.Requests = make(map[rt.ResourceID]int)
	}
	v.Requests[q] += n
	t.setCSLen(q, csLen)
}

func (t *Task) setCSLen(q rt.ResourceID, csLen rt.Time) {
	for int(q) >= len(t.CSLen) {
		t.CSLen = append(t.CSLen, 0)
	}
	if t.CSLen[q] != 0 && t.CSLen[q] != csLen {
		panic(fmt.Sprintf("model: task %d resource %d: conflicting CS lengths %d and %d",
			t.ID, q, t.CSLen[q], csLen))
	}
	t.CSLen[q] = csLen
}

// Finalize validates the task and computes its derived quantities.
// numResources is the number of resources in the enclosing taskset; it
// sizes the per-resource vectors.
func (t *Task) Finalize(numResources int) error {
	if t.finalized {
		return nil
	}
	if len(t.Vertices) == 0 {
		return fmt.Errorf("model: task %d has no vertices", t.ID)
	}
	if t.Period <= 0 {
		return fmt.Errorf("model: task %d has non-positive period %d", t.ID, t.Period)
	}
	if t.Deadline <= 0 || t.Deadline > t.Period {
		return fmt.Errorf("model: task %d violates constrained deadline: D=%d T=%d",
			t.ID, t.Deadline, t.Period)
	}
	for len(t.CSLen) < numResources {
		t.CSLen = append(t.CSLen, 0)
	}
	if len(t.CSLen) > numResources {
		return fmt.Errorf("model: task %d references resource beyond taskset's %d resources",
			t.ID, numResources)
	}
	for q, cs := range t.CSLen {
		if cs < 0 {
			return fmt.Errorf("model: task %d has negative CS length %d on resource %d", t.ID, cs, q)
		}
	}

	n := len(t.Vertices)
	t.succ = make([][]rt.VertexID, n)
	t.pred = make([][]rt.VertexID, n)
	for _, e := range t.Edges {
		if int(e.From) >= n || int(e.To) >= n || e.From < 0 || e.To < 0 {
			return fmt.Errorf("model: task %d edge (%d,%d) references missing vertex",
				t.ID, e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("model: task %d has self-loop at vertex %d", t.ID, e.From)
		}
		t.succ[e.From] = append(t.succ[e.From], e.To)
		t.pred[e.To] = append(t.pred[e.To], e.From)
	}

	topo, err := t.topoSort()
	if err != nil {
		return err
	}
	t.topo = topo

	t.wcet = 0
	t.nReq = make([]int64, numResources)
	for x, v := range t.Vertices {
		// Vertex IDs are assigned by AddVertex and must equal the slice
		// index: the simulator and segment builder index by them. A JSON
		// document is free to claim otherwise, so Finalize enforces it.
		if v.ID != rt.VertexID(x) {
			return fmt.Errorf("model: task %d vertex at index %d carries ID %d", t.ID, x, v.ID)
		}
		if v.WCET <= 0 {
			return fmt.Errorf("model: task %d vertex %d has non-positive WCET", t.ID, v.ID)
		}
		t.wcet = rt.SatAdd(t.wcet, v.WCET)
		var cs rt.Time
		for q, c := range v.Requests {
			if c < 0 {
				return fmt.Errorf("model: task %d vertex %d has negative request count", t.ID, v.ID)
			}
			if int(q) >= numResources {
				return fmt.Errorf("model: task %d vertex %d requests unknown resource %d", t.ID, v.ID, q)
			}
			t.nReq[q] += int64(c)
			cs += rt.SatMul(int64(c), t.CSLen[q])
		}
		if cs > v.WCET {
			return fmt.Errorf("model: task %d vertex %d: critical sections (%d) exceed WCET (%d)",
				t.ID, v.ID, cs, v.WCET)
		}
	}

	// Longest path over the DAG in topological order (saturating, so
	// absurd decoded WCETs cannot wrap into negative lengths).
	dist := make([]rt.Time, n)
	t.longestPath = 0
	for _, x := range t.topo {
		d := rt.SatAdd(dist[x], t.Vertices[x].WCET)
		if d > t.longestPath {
			t.longestPath = d
		}
		for _, y := range t.succ[x] {
			if d > dist[y] {
				dist[y] = d
			}
		}
	}

	t.heads = t.heads[:0]
	t.tails = t.tails[:0]
	for x := range t.Vertices {
		if len(t.pred[x]) == 0 {
			t.heads = append(t.heads, rt.VertexID(x))
		}
		if len(t.succ[x]) == 0 {
			t.tails = append(t.tails, rt.VertexID(x))
		}
	}

	// Freeze the structural part of the canonical serialization now: the
	// vertex/edge/CS body never changes after Finalize, so Taskset.Hash can
	// reuse it instead of re-sorting request maps and edges on every call.
	// (Priority may still be assigned by the owning taskset's Finalize, so
	// the header line is not cached.)
	t.canon = t.appendCanonBody(nil)

	t.finalized = true
	return nil
}

func (t *Task) topoSort() ([]rt.VertexID, error) {
	n := len(t.Vertices)
	indeg := make([]int, n)
	for x := range t.Vertices {
		for range t.pred[x] {
			indeg[x]++
		}
	}
	queue := make([]rt.VertexID, 0, n)
	for x := 0; x < n; x++ {
		if indeg[x] == 0 {
			queue = append(queue, rt.VertexID(x))
		}
	}
	order := make([]rt.VertexID, 0, n)
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		order = append(order, x)
		for _, y := range t.succ[x] {
			indeg[y]--
			if indeg[y] == 0 {
				queue = append(queue, y)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("model: task %d DAG contains a cycle", t.ID)
	}
	return order, nil
}

func (t *Task) mustFinal() {
	if !t.finalized {
		panic(fmt.Sprintf("model: task %d used before Finalize", t.ID))
	}
}

// WCET returns C_i, the total worst-case execution time of the task.
func (t *Task) WCET() rt.Time { t.mustFinal(); return t.wcet }

// LongestPath returns L*_i, the length of the longest complete path.
func (t *Task) LongestPath() rt.Time { t.mustFinal(); return t.longestPath }

// Utilization returns U_i = C_i / T_i.
func (t *Task) Utilization() float64 {
	t.mustFinal()
	return float64(t.wcet) / float64(t.Period)
}

// Heavy reports whether the task is heavy under federated scheduling,
// i.e. C_i / D_i > 1.
func (t *Task) Heavy() bool { t.mustFinal(); return t.wcet > t.Deadline }

// NumRequests returns N_{i,q}, the task's maximum number of requests to q.
func (t *Task) NumRequests(q rt.ResourceID) int64 {
	t.mustFinal()
	if int(q) >= len(t.nReq) {
		return 0
	}
	return t.nReq[q]
}

// UsesResource reports whether the task issues any request to q.
func (t *Task) UsesResource(q rt.ResourceID) bool { return t.NumRequests(q) > 0 }

// CS returns L_{i,q}, the task's maximum critical-section length on q
// (0 when unused).
func (t *Task) CS(q rt.ResourceID) rt.Time {
	if int(q) >= len(t.CSLen) {
		return 0
	}
	return t.CSLen[q]
}

// CSWork returns N_{i,q} * L_{i,q}, the task's total per-job critical-section
// workload on q.
func (t *Task) CSWork(q rt.ResourceID) rt.Time {
	return rt.SatMul(t.NumRequests(q), t.CS(q))
}

// NonCritWCET returns C'_i = C_i - sum_q N_{i,q} * L_{i,q}, the WCET of the
// task's non-critical sections.
func (t *Task) NonCritWCET() rt.Time {
	t.mustFinal()
	c := t.wcet
	for q := range t.nReq {
		c -= t.CSWork(rt.ResourceID(q))
	}
	return c
}

// VertexNonCrit returns C'_{i,x}, the non-critical WCET of vertex x.
func (t *Task) VertexNonCrit(x rt.VertexID) rt.Time {
	t.mustFinal()
	v := t.Vertices[x]
	c := v.WCET
	for q, n := range v.Requests {
		c -= rt.SatMul(int64(n), t.CS(q))
	}
	return c
}

// Topo returns the vertices in a topological order.
func (t *Task) Topo() []rt.VertexID { t.mustFinal(); return t.topo }

// Succ returns the successors of vertex x.
func (t *Task) Succ(x rt.VertexID) []rt.VertexID { t.mustFinal(); return t.succ[x] }

// Pred returns the predecessors of vertex x.
func (t *Task) Pred(x rt.VertexID) []rt.VertexID { t.mustFinal(); return t.pred[x] }

// Heads returns the source vertices of the DAG.
func (t *Task) Heads() []rt.VertexID { t.mustFinal(); return t.heads }

// Tails returns the sink vertices of the DAG.
func (t *Task) Tails() []rt.VertexID { t.mustFinal(); return t.tails }

// Resources returns the IDs of the resources the task uses, ascending.
func (t *Task) Resources() []rt.ResourceID {
	t.mustFinal()
	var out []rt.ResourceID
	for q, n := range t.nReq {
		if n > 0 {
			out = append(out, rt.ResourceID(q))
		}
	}
	return out
}
