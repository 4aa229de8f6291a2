package model

import (
	"fmt"
	"sort"

	"dpcpp/internal/rt"
)

// Taskset is a set of DAG tasks sharing nr resources on m processors.
type Taskset struct {
	Tasks        []*Task `json:"tasks"`
	NumResources int     `json:"num_resources"`
	NumProcs     int     `json:"num_procs"`

	finalized bool
	sharers   [][]rt.TaskID // per resource: tasks that use it, by descending priority
}

// NewTaskset returns an empty taskset for m processors and nr resources.
func NewTaskset(m, nr int) *Taskset {
	return &Taskset{NumResources: nr, NumProcs: m}
}

// Add appends a task. Must be called before Finalize.
func (ts *Taskset) Add(t *Task) { ts.Tasks = append(ts.Tasks, t) }

// Finalize validates every task, assigns rate-monotonic priorities when no
// explicit priorities were provided, and classifies resources.
//
// RM ties are broken by task ID so that priorities are always unique and
// deterministic, as the analysis requires.
func (ts *Taskset) Finalize() error {
	if ts.finalized {
		return nil
	}
	if ts.NumProcs < 2 {
		return fmt.Errorf("model: taskset needs m >= 2 processors, have %d", ts.NumProcs)
	}
	if ts.NumResources < 0 {
		return fmt.Errorf("model: negative resource count %d", ts.NumResources)
	}
	seen := make(map[rt.TaskID]bool, len(ts.Tasks))
	for _, t := range ts.Tasks {
		if seen[t.ID] {
			return fmt.Errorf("model: duplicate task ID %d", t.ID)
		}
		seen[t.ID] = true
		if err := t.Finalize(ts.NumResources); err != nil {
			return err
		}
	}

	if !ts.prioritiesExplicit() {
		ts.AssignRMPriorities()
	}
	prios := make(map[rt.Priority]rt.TaskID, len(ts.Tasks))
	for _, t := range ts.Tasks {
		if other, dup := prios[t.Priority]; dup {
			return fmt.Errorf("model: tasks %d and %d share priority %d", other, t.ID, t.Priority)
		}
		prios[t.Priority] = t.ID
	}

	ts.sharers = make([][]rt.TaskID, ts.NumResources)
	byPrio := ts.ByPriorityDesc()
	for _, t := range byPrio {
		for q := 0; q < ts.NumResources; q++ {
			if t.UsesResource(rt.ResourceID(q)) {
				ts.sharers[q] = append(ts.sharers[q], t.ID)
			}
		}
	}

	ts.finalized = true
	return nil
}

func (ts *Taskset) prioritiesExplicit() bool {
	for _, t := range ts.Tasks {
		if t.Priority != 0 {
			return true
		}
	}
	return false
}

// AssignRMPriorities assigns unique rate-monotonic base priorities:
// shorter period means higher priority; ties broken by smaller task ID.
// Priorities are 1..n with n = highest.
func (ts *Taskset) AssignRMPriorities() {
	order := append([]*Task(nil), ts.Tasks...)
	sort.SliceStable(order, func(a, b int) bool {
		if order[a].Period != order[b].Period {
			return order[a].Period > order[b].Period
		}
		return order[a].ID > order[b].ID
	})
	for i, t := range order {
		t.Priority = rt.Priority(i + 1)
	}
}

func (ts *Taskset) mustFinal() {
	if !ts.finalized {
		panic("model: taskset used before Finalize")
	}
}

// Task returns the task with the given ID.
func (ts *Taskset) Task(id rt.TaskID) *Task {
	for _, t := range ts.Tasks {
		if t.ID == id {
			return t
		}
	}
	panic(fmt.Sprintf("model: unknown task %d", id))
}

// ByPriorityDesc returns the tasks ordered from highest to lowest base
// priority.
func (ts *Taskset) ByPriorityDesc() []*Task {
	out := append([]*Task(nil), ts.Tasks...)
	sort.Slice(out, func(a, b int) bool { return out[a].Priority > out[b].Priority })
	return out
}

// IsGlobal reports whether q is a global resource, i.e. shared by more than
// one task (Sec. III-A).
func (ts *Taskset) IsGlobal(q rt.ResourceID) bool {
	ts.mustFinal()
	return len(ts.sharers[q]) > 1
}

// IsLocal reports whether q is used by exactly one task.
func (ts *Taskset) IsLocal(q rt.ResourceID) bool {
	ts.mustFinal()
	return len(ts.sharers[q]) == 1
}

// GlobalResources returns the IDs of all global resources, ascending.
func (ts *Taskset) GlobalResources() []rt.ResourceID {
	ts.mustFinal()
	var out []rt.ResourceID
	for q := 0; q < ts.NumResources; q++ {
		if ts.IsGlobal(rt.ResourceID(q)) {
			out = append(out, rt.ResourceID(q))
		}
	}
	return out
}

// ResourceUtilization returns u^Phi_q = sum_j N_{j,q} * L_{j,q} / T_j.
func (ts *Taskset) ResourceUtilization(q rt.ResourceID) float64 {
	ts.mustFinal()
	u := 0.0
	for _, id := range ts.sharers[q] {
		t := ts.Task(id)
		u += float64(t.CSWork(q)) / float64(t.Period)
	}
	return u
}

// TotalUtilization returns the sum of task utilizations.
func (ts *Taskset) TotalUtilization() float64 {
	u := 0.0
	for _, t := range ts.Tasks {
		u += t.Utilization()
	}
	return u
}

// CeilingAtLeast reports whether the priority ceiling of resource q reaches
// pi^H + pi, i.e. whether q is used by some task with base priority >= pi.
// This is the ceiling comparison the beta term of Lemma 2 performs.
func (ts *Taskset) CeilingAtLeast(q rt.ResourceID, pi rt.Priority) bool {
	ts.mustFinal()
	sh := ts.sharers[q]
	if len(sh) == 0 {
		return false
	}
	// sharers are sorted by descending priority, so the first one carries
	// the ceiling.
	return ts.Task(sh[0]).Priority >= pi
}

// Ceiling returns the priority ceiling contribution of resource q: the
// maximum base priority among its users (0 when unused).
func (ts *Taskset) Ceiling(q rt.ResourceID) rt.Priority {
	ts.mustFinal()
	sh := ts.sharers[q]
	if len(sh) == 0 {
		return 0
	}
	return ts.Task(sh[0]).Priority
}
