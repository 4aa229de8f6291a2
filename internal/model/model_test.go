package model

import (
	"strings"
	"testing"

	"dpcpp/internal/rt"
)

// paperTaskGi builds G_i from Fig. 1(a): eight vertices, longest path
// (v1, v5, v7, v8) of length 10. Vertex indices here are 0-based.
func paperTaskGi(t *testing.T) *Task {
	t.Helper()
	task := NewTask(0, 20*rt.Microsecond, 20*rt.Microsecond)
	wcets := []rt.Time{2, 3, 2, 2, 4, 2, 2, 2}
	for _, c := range wcets {
		task.AddVertex(c * rt.Microsecond)
	}
	// v1 fans out to v2..v5; v2,v3 -> v6; v4,v5 -> v7; v6,v7 -> v8.
	task.AddEdge(0, 1)
	task.AddEdge(0, 2)
	task.AddEdge(0, 3)
	task.AddEdge(0, 4)
	task.AddEdge(1, 5)
	task.AddEdge(2, 5)
	task.AddEdge(3, 6)
	task.AddEdge(4, 6)
	task.AddEdge(5, 7)
	task.AddEdge(6, 7)
	// v2 requests global l1 once (1us CS); v3 and v4 request local l2 once.
	task.AddRequest(1, 0, 1, 1*rt.Microsecond)
	task.AddRequest(2, 1, 1, 1*rt.Microsecond)
	task.AddRequest(3, 1, 1, 1*rt.Microsecond)
	if err := task.Finalize(2); err != nil {
		t.Fatalf("Finalize(Gi): %v", err)
	}
	return task
}

func TestTaskDerivedQuantities(t *testing.T) {
	task := paperTaskGi(t)
	if got, want := task.WCET(), 19*rt.Microsecond; got != want {
		t.Errorf("WCET = %v, want %v", got, want)
	}
	if got, want := task.LongestPath(), 10*rt.Microsecond; got != want {
		t.Errorf("LongestPath = %v, want %v", got, want)
	}
	if got := task.NumRequests(0); got != 1 {
		t.Errorf("NumRequests(l1) = %d, want 1", got)
	}
	if got := task.NumRequests(1); got != 2 {
		t.Errorf("NumRequests(l2) = %d, want 2", got)
	}
	if got, want := task.NonCritWCET(), 16*rt.Microsecond; got != want {
		t.Errorf("NonCritWCET = %v, want %v", got, want)
	}
	if got, want := task.VertexNonCrit(1), 2*rt.Microsecond; got != want {
		t.Errorf("VertexNonCrit(v2) = %v, want %v", got, want)
	}
	if got, want := task.VertexNonCrit(0), 2*rt.Microsecond; got != want {
		t.Errorf("VertexNonCrit(v1) = %v, want %v", got, want)
	}
}

func TestUtilizationAboveOne(t *testing.T) {
	task := NewTask(0, 10*rt.Microsecond, 10*rt.Microsecond)
	task.AddVertex(8 * rt.Microsecond)
	task.AddVertex(8 * rt.Microsecond)
	if err := task.Finalize(0); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if got := task.Utilization(); got != 1.6 {
		t.Errorf("Utilization = %v, want 1.6", got)
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	task := paperTaskGi(t)
	pos := make(map[rt.VertexID]int)
	for i, x := range task.topo {
		pos[x] = i
	}
	for _, e := range task.Edges {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("topological order violates edge (%d,%d)", e.From, e.To)
		}
	}
}

func TestHeadsAndTails(t *testing.T) {
	task := paperTaskGi(t)
	if got := task.heads; len(got) != 1 || got[0] != 0 {
		t.Errorf("heads = %v, want [0]", got)
	}
	if got := task.tails; len(got) != 1 || got[0] != 7 {
		t.Errorf("tails = %v, want [7]", got)
	}
}

func TestFinalizeRejectsCycle(t *testing.T) {
	task := NewTask(0, rt.Millisecond, rt.Millisecond)
	a := task.AddVertex(rt.Microsecond)
	b := task.AddVertex(rt.Microsecond)
	task.AddEdge(a, b)
	task.AddEdge(b, a)
	if err := task.Finalize(0); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("Finalize on cyclic graph: err = %v, want cycle error", err)
	}
}

func TestFinalizeRejectsBadTiming(t *testing.T) {
	cases := []struct {
		name     string
		period   rt.Time
		deadline rt.Time
	}{
		{"zero period", 0, 0},
		{"deadline exceeds period", rt.Millisecond, 2 * rt.Millisecond},
		{"zero deadline", rt.Millisecond, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			task := NewTask(0, tc.period, tc.deadline)
			task.AddVertex(rt.Microsecond)
			if err := task.Finalize(0); err == nil {
				t.Errorf("Finalize accepted period=%d deadline=%d", tc.period, tc.deadline)
			}
		})
	}
}

func TestFinalizeRejectsOversizedCriticalSections(t *testing.T) {
	task := NewTask(0, rt.Millisecond, rt.Millisecond)
	x := task.AddVertex(10 * rt.Microsecond)
	task.AddRequest(x, 0, 3, 4*rt.Microsecond) // 12us of CS in a 10us vertex
	if err := task.Finalize(1); err == nil {
		t.Error("Finalize accepted vertex whose critical sections exceed its WCET")
	}
}

func TestFinalizeRejectsUnknownResource(t *testing.T) {
	task := NewTask(0, rt.Millisecond, rt.Millisecond)
	x := task.AddVertex(10 * rt.Microsecond)
	task.AddRequest(x, 5, 1, rt.Microsecond)
	if err := task.Finalize(2); err == nil {
		t.Error("Finalize accepted request to resource 5 in a 2-resource set")
	}
}

func TestFinalizeRejectsDanglingEdge(t *testing.T) {
	task := NewTask(0, rt.Millisecond, rt.Millisecond)
	task.AddVertex(rt.Microsecond)
	task.AddEdge(0, 3)
	if err := task.Finalize(0); err == nil {
		t.Error("Finalize accepted edge to missing vertex")
	}
}

func TestFinalizeRejectsSelfLoop(t *testing.T) {
	task := NewTask(0, rt.Millisecond, rt.Millisecond)
	task.AddVertex(rt.Microsecond)
	task.AddEdge(0, 0)
	if err := task.Finalize(0); err == nil {
		t.Error("Finalize accepted self-loop")
	}
}

func TestFinalizeIdempotent(t *testing.T) {
	task := paperTaskGi(t)
	if err := task.Finalize(2); err != nil {
		t.Fatalf("second Finalize: %v", err)
	}
}

func TestResourcesList(t *testing.T) {
	task := paperTaskGi(t)
	rs := task.Resources()
	if len(rs) != 2 || rs[0] != 0 || rs[1] != 1 {
		t.Errorf("Resources = %v, want [0 1]", rs)
	}
}

func TestCSWork(t *testing.T) {
	task := paperTaskGi(t)
	if got, want := task.CSWork(1), 2*rt.Microsecond; got != want {
		t.Errorf("CSWork(l2) = %v, want %v", got, want)
	}
	if got := task.CSWork(7); got != 0 {
		t.Errorf("CSWork(unused) = %v, want 0", got)
	}
}

func TestLinearChainLongestPath(t *testing.T) {
	task := NewTask(0, rt.Millisecond, rt.Millisecond)
	var prev rt.VertexID
	for i := 0; i < 5; i++ {
		x := task.AddVertex(rt.Time(i+1) * rt.Microsecond)
		if i > 0 {
			task.AddEdge(prev, x)
		}
		prev = x
	}
	if err := task.Finalize(0); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if got, want := task.LongestPath(), 15*rt.Microsecond; got != want {
		t.Errorf("chain longest path = %v, want %v", got, want)
	}
	if got := task.CountPaths(); got != 1 {
		t.Errorf("chain CountPaths = %d, want 1", got)
	}
}

func TestParallelVerticesLongestPath(t *testing.T) {
	// No edges at all: every vertex is both head and tail, so each vertex is
	// itself a complete path.
	task := NewTask(0, rt.Millisecond, rt.Millisecond)
	task.AddVertex(3 * rt.Microsecond)
	task.AddVertex(7 * rt.Microsecond)
	task.AddVertex(5 * rt.Microsecond)
	if err := task.Finalize(0); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if got, want := task.LongestPath(), 7*rt.Microsecond; got != want {
		t.Errorf("longest path = %v, want %v", got, want)
	}
	if got := task.CountPaths(); got != 3 {
		t.Errorf("CountPaths = %d, want 3", got)
	}
}
