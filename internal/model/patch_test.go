package model

import (
	"testing"

	"dpcpp/internal/rt"
)

// patchBase builds a small finalized two-task set with one shared resource
// and one task-local one: enough structure to exercise every patch op.
func patchBase(t *testing.T) *Taskset {
	t.Helper()
	ts := NewTaskset(4, 2)

	a := NewTask(0, 1000*rt.Microsecond, 900*rt.Microsecond)
	a.Priority = 2
	a.AddVertex(100 * rt.Microsecond)
	a.AddVertex(50 * rt.Microsecond)
	a.AddVertex(80 * rt.Microsecond)
	a.AddEdge(0, 1)
	a.AddEdge(1, 2)
	a.AddRequest(1, 0, 2, 5*rt.Microsecond)
	ts.Add(a)

	b := NewTask(1, 2000*rt.Microsecond, 2000*rt.Microsecond)
	b.Priority = 1
	b.AddVertex(200 * rt.Microsecond)
	b.AddVertex(150 * rt.Microsecond)
	b.AddRequest(0, 0, 1, 10*rt.Microsecond)
	b.AddRequest(1, 1, 3, 4*rt.Microsecond)
	ts.Add(b)

	if err := ts.Finalize(); err != nil {
		t.Fatal(err)
	}
	return ts
}

func applyOne(t *testing.T, ts *Taskset, op PatchOp) (*Taskset, *PatchDelta) {
	t.Helper()
	out, pd, err := ApplyPatch(ts, Patch{Ops: []PatchOp{op}})
	if err != nil {
		t.Fatalf("ApplyPatch(%+v): %v", op, err)
	}
	return out, pd
}

func wantBits(t *testing.T, pd *PatchDelta, id rt.TaskID, want Change) {
	t.Helper()
	if got := pd.Changed[id]; got != want {
		t.Errorf("task %d change bits = %b, want %b", id, got, want)
	}
}

func TestPatchSetWCET(t *testing.T) {
	ts := patchBase(t)
	out, pd := applyOne(t, ts, PatchOp{Op: OpSetWCET, Task: 0, Vertex: 1, Value: 60 * rt.Microsecond})
	wantBits(t, pd, 0, ChangeWCETUp)
	if got := out.Task(0).Vertices[1].WCET; got != 60*rt.Microsecond {
		t.Errorf("patched WCET = %d", got)
	}
	if got := ts.Task(0).Vertices[1].WCET; got != 50*rt.Microsecond {
		t.Errorf("base mutated: WCET = %d", got)
	}

	_, pd = applyOne(t, ts, PatchOp{Op: OpSetWCET, Task: 0, Vertex: 1, Value: 20 * rt.Microsecond})
	wantBits(t, pd, 0, ChangeWCETDown)

	// Writing the old value back is not a change.
	_, pd = applyOne(t, ts, PatchOp{Op: OpSetWCET, Task: 0, Vertex: 1, Value: 50 * rt.Microsecond})
	wantBits(t, pd, 0, 0)
	if len(pd.Changed) != 0 {
		t.Errorf("no-op patch marked tasks: %v", pd.Changed)
	}
}

// TestPatchWCETFastPathMatchesRebuild pins the cloneWithWCETs fast path
// against the full constructor rebuild: forcing the slow path with a no-op
// structural edit must yield a hash-identical taskset and identical derived
// quantities.
func TestPatchWCETFastPathMatchesRebuild(t *testing.T) {
	ts := patchBase(t)
	bump := PatchOp{Op: OpSetWCET, Task: 0, Vertex: 2, Value: 300 * rt.Microsecond}
	fast, _ := applyOne(t, ts, bump)
	// set_period to the current period materializes a full taskEdit (slow
	// path) without changing anything.
	slow, _, err := ApplyPatch(ts, Patch{Ops: []PatchOp{
		{Op: OpSetPeriod, Task: 0, Value: ts.Task(0).Period}, bump}})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Hash() != slow.Hash() {
		t.Fatalf("fast path hash %s != rebuilt hash %s", fast.Hash(), slow.Hash())
	}
	ft, st := fast.Task(0), slow.Task(0)
	if ft.WCET() != st.WCET() || ft.LongestPath() != st.LongestPath() ||
		ft.NonCritWCET() != st.NonCritWCET() {
		t.Errorf("derived quantities diverge: fast{C=%d lp=%d} rebuilt{C=%d lp=%d}",
			ft.WCET(), ft.LongestPath(), st.WCET(), st.LongestPath())
	}
}

// TestPatchWCETCloneRecomputesPathBounds: the WCET fast path shares the
// base task's structure but must not inherit its memoized path bounds,
// which depend on the WCETs.
func TestPatchWCETCloneRecomputesPathBounds(t *testing.T) {
	ts := patchBase(t)
	base := ts.Task(0).ComputePathBounds() // memoize on the base first
	out, _ := applyOne(t, ts, PatchOp{Op: OpSetWCET, Task: 0, Vertex: 2, Value: 300 * rt.Microsecond})
	got := out.Task(0).ComputePathBounds()
	if got == base {
		t.Fatal("patched clone returned the base task's bounds")
	}
	if want := refPathBounds(out.Task(0)); !pathBoundsEqual(got, want) {
		t.Fatalf("patched bounds %+v, per-quantity DP %+v", got, want)
	}
	if got.MinLength != base.MinLength+220*rt.Microsecond || got.MaxLength != base.MaxLength+220*rt.Microsecond {
		t.Errorf("patched length bounds [%d, %d] do not reflect the 220us bump over [%d, %d]",
			got.MinLength, got.MaxLength, base.MinLength, base.MaxLength)
	}
	if again := ts.Task(0).ComputePathBounds(); again != base || !pathBoundsEqual(again, refPathBounds(ts.Task(0))) {
		t.Error("patching disturbed the base task's memoized bounds")
	}
}

func TestPatchPointerSharing(t *testing.T) {
	ts := patchBase(t)
	out, _ := applyOne(t, ts, PatchOp{Op: OpSetWCET, Task: 0, Vertex: 0, Value: 101 * rt.Microsecond})
	if out.Task(1) != ts.Task(1) {
		t.Error("untouched task not shared by pointer")
	}
	if out.Task(0) == ts.Task(0) {
		t.Error("patched task shared with base")
	}
}

func TestPatchSetCSLen(t *testing.T) {
	ts := patchBase(t)
	out, pd := applyOne(t, ts, PatchOp{Op: OpSetCSLen, Task: 1, Resource: 0, Value: 20 * rt.Microsecond})
	wantBits(t, pd, 1, ChangeCSUp)
	if got := out.Task(1).CS(0); got != 20*rt.Microsecond {
		t.Errorf("patched CS = %d", got)
	}
	_, pd = applyOne(t, ts, PatchOp{Op: OpSetCSLen, Task: 1, Resource: 0, Value: 3 * rt.Microsecond})
	wantBits(t, pd, 1, ChangeCSDown)
}

func TestPatchSetRequest(t *testing.T) {
	ts := patchBase(t)
	_, pd := applyOne(t, ts, PatchOp{Op: OpSetRequest, Task: 0, Vertex: 1, Resource: 0, Count: 3})
	wantBits(t, pd, 0, ChangeReqUp)
	_, pd = applyOne(t, ts, PatchOp{Op: OpSetRequest, Task: 0, Vertex: 1, Resource: 0, Count: 1})
	wantBits(t, pd, 0, ChangeReqDown)
	// Crossing zero in either direction is a sharer flip, not Req{Up,Down}.
	_, pd = applyOne(t, ts, PatchOp{Op: OpSetRequest, Task: 0, Vertex: 1, Resource: 0, Count: 0})
	wantBits(t, pd, 0, ChangeSharers)
	_, pd = applyOne(t, ts, PatchOp{Op: OpSetRequest, Task: 0, Vertex: 0, Resource: 1, Count: 1})
	wantBits(t, pd, 0, ChangeSharers)
}

func TestPatchEdges(t *testing.T) {
	ts := patchBase(t)
	out, pd := applyOne(t, ts, PatchOp{Op: OpAddEdge, Task: 1, From: 0, To: 1})
	wantBits(t, pd, 1, ChangeEdges)
	if got := out.Task(1).LongestPath(); got != 350*rt.Microsecond {
		t.Errorf("serialized longest path = %d, want 350us", got)
	}
	_, pd = applyOne(t, ts, PatchOp{Op: OpRemoveEdge, Task: 0, From: 0, To: 1})
	wantBits(t, pd, 0, ChangeEdges)
}

func TestPatchTiming(t *testing.T) {
	ts := patchBase(t)
	_, pd := applyOne(t, ts, PatchOp{Op: OpSetPeriod, Task: 0, Value: 1500 * rt.Microsecond})
	wantBits(t, pd, 0, ChangePeriod)
	_, pd = applyOne(t, ts, PatchOp{Op: OpSetDeadline, Task: 0, Value: 800 * rt.Microsecond})
	wantBits(t, pd, 0, ChangeDeadline)
}

func TestPatchAddRemoveTask(t *testing.T) {
	ts := patchBase(t)
	nt := NewTask(7, 5000*rt.Microsecond, 5000*rt.Microsecond)
	nt.Priority = 9
	nt.AddVertex(100 * rt.Microsecond)
	out, pd := applyOne(t, ts, PatchOp{Op: OpAddTask, NewTask: nt})
	wantBits(t, pd, 7, ChangeAdded)
	if len(out.Tasks) != 3 {
		t.Fatalf("task count = %d, want 3", len(out.Tasks))
	}
	// Base priorities must survive the add verbatim.
	if out.Task(0).Priority != 2 || out.Task(1).Priority != 1 || out.Task(7).Priority != 9 {
		t.Errorf("priorities reshuffled: %d %d %d",
			out.Task(0).Priority, out.Task(1).Priority, out.Task(7).Priority)
	}

	out2, pd := applyOne(t, ts, PatchOp{Op: OpRemoveTask, Task: 0})
	wantBits(t, pd, 0, ChangeRemoved)
	if len(out2.Tasks) != 1 || out2.Tasks[0].ID != 1 {
		t.Fatalf("remove_task left %v", out2.Tasks)
	}
}

func TestPatchErrors(t *testing.T) {
	ts := patchBase(t)
	cases := []struct {
		op   PatchOp
		code string
	}{
		{PatchOp{Op: "warp_time", Task: 0}, "unknown_op"},
		{PatchOp{Op: OpSetWCET, Task: 9, Vertex: 0, Value: 1}, "unknown_task"},
		{PatchOp{Op: OpSetWCET, Task: 0, Vertex: 99, Value: 1}, "unknown_vertex"},
		{PatchOp{Op: OpSetWCET, Task: 0, Vertex: 0, Value: 0}, "bad_value"},
		{PatchOp{Op: OpSetWCET, Task: 0, Vertex: 1, Value: 1}, "finalize"}, // below CS work
		{PatchOp{Op: OpSetCSLen, Task: 0, Resource: 5, Value: 1}, "unknown_resource"},
		{PatchOp{Op: OpSetCSLen, Task: 0, Resource: 0, Value: -1}, "bad_value"},
		{PatchOp{Op: OpSetRequest, Task: 0, Vertex: 1, Resource: 0, Count: -1}, "bad_value"},
		{PatchOp{Op: OpAddEdge, Task: 0, From: 1, To: 1}, "bad_value"},
		{PatchOp{Op: OpAddEdge, Task: 0, From: 2, To: 0}, "finalize"}, // cycle
		{PatchOp{Op: OpRemoveEdge, Task: 0, From: 2, To: 0}, "unknown_edge"},
		{PatchOp{Op: OpSetPeriod, Task: 0, Value: 0}, "bad_value"},
		{PatchOp{Op: OpSetDeadline, Task: 0, Value: 1500 * rt.Microsecond}, "finalize"}, // deadline > period
		{PatchOp{Op: OpAddTask}, "bad_value"},
		{PatchOp{Op: OpRemoveTask, Task: 42}, "unknown_task"},
	}
	for _, c := range cases {
		_, _, err := ApplyPatch(ts, Patch{Ops: []PatchOp{c.op}})
		perr, ok := err.(*PatchError)
		if !ok {
			t.Errorf("op %+v: got %v, want *PatchError(%s)", c.op, err, c.code)
			continue
		}
		if perr.Code != c.code {
			t.Errorf("op %+v: code = %q, want %q", c.op, perr.Code, c.code)
		}
	}

	// Duplicate added ID.
	nt := NewTask(0, 1000*rt.Microsecond, 1000*rt.Microsecond)
	nt.AddVertex(1)
	_, _, err := ApplyPatch(ts, Patch{Ops: []PatchOp{{Op: OpAddTask, NewTask: nt}}})
	if perr, ok := err.(*PatchError); !ok || perr.Code != "duplicate_task" {
		t.Errorf("duplicate add: got %v, want duplicate_task", err)
	}
}

// TestPatchEquivalentToDirectConstruction pins the hash contract the
// server's cache relies on: patching a base must produce the same content
// address as building the patched taskset from scratch.
func TestPatchEquivalentToDirectConstruction(t *testing.T) {
	ts := patchBase(t)
	out, _ := applyOne(t, ts, PatchOp{Op: OpSetWCET, Task: 1, Vertex: 1, Value: 175 * rt.Microsecond})

	direct := NewTaskset(4, 2)
	a := NewTask(0, 1000*rt.Microsecond, 900*rt.Microsecond)
	a.Priority = 2
	a.AddVertex(100 * rt.Microsecond)
	a.AddVertex(50 * rt.Microsecond)
	a.AddVertex(80 * rt.Microsecond)
	a.AddEdge(0, 1)
	a.AddEdge(1, 2)
	a.AddRequest(1, 0, 2, 5*rt.Microsecond)
	direct.Add(a)
	b := NewTask(1, 2000*rt.Microsecond, 2000*rt.Microsecond)
	b.Priority = 1
	b.AddVertex(200 * rt.Microsecond)
	b.AddVertex(175 * rt.Microsecond)
	b.AddRequest(0, 0, 1, 10*rt.Microsecond)
	b.AddRequest(1, 1, 3, 4*rt.Microsecond)
	direct.Add(b)
	if err := direct.Finalize(); err != nil {
		t.Fatal(err)
	}
	if out.Hash() != direct.Hash() {
		t.Fatalf("patched hash %s != directly built hash %s", out.Hash(), direct.Hash())
	}
}

func TestPatchAtomicity(t *testing.T) {
	ts := patchBase(t)
	before := ts.Hash()
	// Valid op followed by an invalid one: no partial result, base intact.
	_, _, err := ApplyPatch(ts, Patch{Ops: []PatchOp{
		{Op: OpSetWCET, Task: 0, Vertex: 0, Value: 500 * rt.Microsecond},
		{Op: OpSetWCET, Task: 9, Vertex: 0, Value: 1},
	}})
	if err == nil {
		t.Fatal("invalid second op accepted")
	}
	if ts.Hash() != before {
		t.Fatal("failed patch mutated the base taskset")
	}
}
