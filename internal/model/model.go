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
	"math"
	"slices"
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
	// adj holds every vertex's successor list, then every vertex's
	// predecessor list, each in edge order; adjOff delimits them (see
	// succOf and predOf). The offsets are int32 to halve the index;
	// Finalize rejects a task with more edges than they can address.
	adj    []rt.VertexID
	adjOff []int32
	nReq   []int64 // N_{i,q} per resource
	heads  []rt.VertexID
	tails  []rt.VertexID
	canon  []byte // canonical body (vertices/edges/CS), see hash.go

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
	if len(t.Edges) > math.MaxInt32/2 {
		return fmt.Errorf("model: task %d has %d edges, above the limit %d",
			t.ID, len(t.Edges), math.MaxInt32/2)
	}
	for _, e := range t.Edges {
		if int(e.From) >= n || int(e.To) >= n || e.From < 0 || e.To < 0 {
			return fmt.Errorf("model: task %d edge (%d,%d) references missing vertex",
				t.ID, e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("model: task %d has self-loop at vertex %d", t.ID, e.From)
		}
	}
	topo, err := t.topoSort(t.buildAdjacency())
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
		for _, y := range t.succOf(x) {
			if d > dist[y] {
				dist[y] = d
			}
		}
	}

	// Heads and tails share one allocation: heads fill the first n slots,
	// tails the last n, and each is capped at its length.
	ends := make([]rt.VertexID, 2*n)
	heads, tails := ends[:0:n], ends[n:n]
	for x := range t.Vertices {
		if len(t.predOf(rt.VertexID(x))) == 0 {
			heads = append(heads, rt.VertexID(x))
		}
		if len(t.succOf(rt.VertexID(x))) == 0 {
			tails = append(tails, rt.VertexID(x))
		}
	}
	t.heads, t.tails = slices.Clip(heads), slices.Clip(tails)

	// Freeze the structural part of the canonical serialization now: the
	// vertex/edge/CS body never changes after Finalize, so Taskset.Hash can
	// reuse it instead of re-sorting request maps and edges on every call.
	// (Priority may still be assigned by the owning taskset's Finalize, so
	// the header line is not cached.)
	t.freezeCanonBody()

	t.finalized = true
	return nil
}

// buildAdjacency lays out the successor and predecessor lists, each in
// edge order, in one backing array (adj) delimited by adjOff. It returns
// the in-degrees for topoSort.
func (t *Task) buildAdjacency() []int32 {
	n := len(t.Vertices)
	// off[x+1] counts list x (successors of x, then predecessors of x-n);
	// the prefix sum turns counts into starts, the fill advances each
	// start to its list's end, and the final shift restores the starts.
	off := make([]int32, 2*n+1)
	for _, e := range t.Edges {
		off[e.From+1]++
		off[n+int(e.To)+1]++
	}
	indeg := make([]int32, n)
	copy(indeg, off[n+1:])
	for x := 1; x < len(off); x++ {
		off[x] += off[x-1]
	}
	adj := make([]rt.VertexID, 2*len(t.Edges))
	for _, e := range t.Edges {
		adj[off[e.From]] = e.To
		off[e.From]++
		adj[off[n+int(e.To)]] = e.From
		off[n+int(e.To)]++
	}
	copy(off[1:], off[:len(off)-1])
	off[0] = 0
	t.adj, t.adjOff = adj, off
	return indeg
}

// succOf and predOf return vertex x's successors and predecessors in edge
// order. Each list is capped at its own length, so an append to one
// reallocates instead of overwriting its neighbour.
func (t *Task) succOf(x rt.VertexID) []rt.VertexID {
	off := t.adjOff[x : x+2]
	return t.adj[off[0]:off[1]:off[1]]
}

func (t *Task) predOf(x rt.VertexID) []rt.VertexID {
	off := t.adjOff[rt.VertexID(len(t.Vertices))+x:][:2]
	return t.adj[off[0]:off[1]:off[1]]
}

// topoSort orders the vertices by Kahn's algorithm, consuming indeg.
func (t *Task) topoSort(indeg []int32) ([]rt.VertexID, error) {
	n := len(t.Vertices)
	order := make([]rt.VertexID, 0, n)
	for x, d := range indeg {
		if d == 0 {
			order = append(order, rt.VertexID(x))
		}
	}
	// order doubles as the FIFO queue: a vertex is appended when it
	// becomes ready, and the queue's dequeue order is the order itself.
	for i := 0; i < len(order); i++ {
		for _, y := range t.succOf(order[i]) {
			indeg[y]--
			if indeg[y] == 0 {
				order = append(order, y)
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
func (t *Task) Succ(x rt.VertexID) []rt.VertexID { t.mustFinal(); return t.succOf(x) }

// Pred returns the predecessors of vertex x.
func (t *Task) Pred(x rt.VertexID) []rt.VertexID { t.mustFinal(); return t.predOf(x) }

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
