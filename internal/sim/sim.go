package sim

import (
	"container/heap"
	"fmt"

	"dpcpp/internal/model"
	"dpcpp/internal/partition"
	"dpcpp/internal/rt"
)

// Protocol selects the runtime synchronization protocol.
type Protocol int

const (
	// ProtocolDPCPp is the paper's protocol: global requests execute
	// remotely via agents under the priority ceiling (default).
	ProtocolDPCPp Protocol = iota
	// ProtocolSpin executes every request locally with FIFO
	// non-preemptive spin locks (the SPIN-SON baseline runtime): a vertex
	// whose lock is busy keeps its processor and busy-waits.
	ProtocolSpin
	// ProtocolLPP executes every request locally with suspension-based
	// FIFO semaphores and holder priority boosting (the LPP baseline
	// runtime): a vertex whose lock is busy releases its processor; lock
	// holders are boosted above every non-holder in their cluster,
	// preemptively — a granted holder never waits for a processor behind
	// non-critical work. (The LPP analysis bounds each FIFO wait by the
	// critical-section lengths ahead in the queue, which is only sound
	// when holders run as soon as they are granted; dispatch-time-only
	// boosting lets a holder stall behind its own task's non-critical
	// vertices and leaks that stall into other tasks' FIFO waits. The
	// differential audit caught exactly this as certified-taskset deadline
	// misses.)
	ProtocolLPP
)

// Config tunes one simulation run.
type Config struct {
	// Protocol selects the runtime protocol (default ProtocolDPCPp).
	Protocol Protocol
	// Horizon: jobs are released strictly before it; the run continues
	// until every released job finishes (or HardStop).
	Horizon rt.Time
	// HardStop aborts a runaway simulation; defaults to 4*Horizon.
	HardStop rt.Time
	// Offsets gives per-task first release times (default: synchronous 0).
	Offsets map[rt.TaskID]rt.Time
	// Placement controls critical-section placement inside vertices.
	Placement CSPlacement
	// CollectTrace records per-processor execution spans for Gantt output.
	CollectTrace bool
	// DisableCeiling turns off the priority-ceiling grant rule (requests
	// are granted whenever the resource is free, FIFO by arrival). This is
	// the ablation showing why Lemma 1 needs the ceiling.
	DisableCeiling bool
}

// vertexRun is the runtime state of one vertex of one job.
type vertexRun struct {
	job       *jobState
	x         rt.VertexID
	segs      []Segment
	segIdx    int
	remaining rt.Time // remaining duration of the current segment
	predsLeft int
	holding   rt.ResourceID // local resource currently held, or NoResource
}

func (vr *vertexRun) String() string {
	return fmt.Sprintf("J%d.%d/v%d", vr.job.task.t.ID, vr.job.idx, vr.x)
}

// jobState is the runtime state of one job.
type jobState struct {
	task      *taskState
	idx       int64
	release   rt.Time
	deadline  rt.Time
	finish    rt.Time // -1 while running
	vertsLeft int
	verts     []*vertexRun
}

// taskState is the per-task runtime state: its cluster and the queues of
// Sec. III-B. The suspended queue SQ is implicit in the resource wait
// lists and outstanding requests.
type taskState struct {
	t     *model.Task
	procs []rt.ProcID
	rqN   []*vertexRun // ready, non-critical (FIFO)
	rqL   []*vertexRun // ready, holding a local resource (FIFO, precedence)
	jobs  []*jobState
}

// request is a global-resource request executed by an agent (an RPC-like
// proxy) on the resource's processor.
type request struct {
	id        int64
	vr        *vertexRun
	res       *resState
	prio      rt.Priority // base priority of the issuing task
	issued    rt.Time
	granted   rt.Time // -1 while in SQG
	finished  rt.Time
	remaining rt.Time
	// blockedBy tracks distinct lower-priority requests that executed on
	// the target processor while this one was pending (Lemma 1 check).
	blockedBy map[int64]bool
}

// resState is the runtime state of one resource.
type resState struct {
	q        rt.ResourceID
	global   bool
	proc     rt.ProcID    // hosting processor for globals (DPCP-p only)
	ceiling  rt.Priority  // max base priority among users
	lockedBy interface{}  // *vertexRun (local), *request (global), or nil
	waiters  []*vertexRun // FIFO waiters on a locally-executed resource
}

// procState is one physical processor: the task whose cluster owns it,
// plus the agent queues RQG (ready, priority-ordered) and SQG (suspended on
// the ceiling).
type procState struct {
	id    rt.ProcID
	owner *taskState
	rqG   []*request
	sqG   []*request

	// What is currently executing.
	curReq   *request
	curVert  *vertexRun
	spinning bool // curVert busy-waits on a lock (ProtocolSpin)
	started  rt.Time
	token    int64 // invalidates stale completion events
}

func (p *procState) busy() bool { return p.curReq != nil || p.curVert != nil }

// event kinds.
const (
	evRelease = iota
	evSegEnd
)

type event struct {
	at   rt.Time
	seq  int64
	kind int
	task *taskState // evRelease
	proc *procState // evSegEnd
	tok  int64      // evSegEnd: valid only if proc.token matches
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(a, b int) bool {
	if q[a].at != q[b].at {
		return q[a].at < q[b].at
	}
	return q[a].seq < q[b].seq
}
func (q eventQueue) Swap(a, b int)       { q[a], q[b] = q[b], q[a] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// Sim is one simulation instance.
type Sim struct {
	ts  *model.Taskset
	p   *partition.Partition
	cfg Config

	now    rt.Time
	eq     eventQueue
	seq    int64
	reqSeq int64

	tasks map[rt.TaskID]*taskState
	procs []*procState
	res   []*resState

	trace      []Span
	violations []string
	metrics    Metrics
	pending    []*request // all requests issued and not finished
}

// Span is one contiguous execution interval on a processor, for traces.
type Span struct {
	Proc  rt.ProcID
	From  rt.Time
	To    rt.Time
	What  string
	IsCS  bool
	Agent bool
}

// Metrics aggregates the outcome of a run.
type Metrics struct {
	Jobs           int64
	DeadlineMisses int64
	// MaxResponse per task.
	MaxResponse map[rt.TaskID]rt.Time
	// Requests counts global-resource requests served.
	Requests int64
	// MaxRequestWait is the longest issue-to-grant delay observed.
	MaxRequestWait rt.Time
	// MaxLowPrioBlockers is the largest number of distinct lower-priority
	// requests that blocked a single request (Lemma 1 says <= 1 with the
	// ceiling enabled).
	MaxLowPrioBlockers int
	// SpinTime is the total processor time burned busy-waiting
	// (ProtocolSpin only).
	SpinTime rt.Time
	// Suspensions counts lock-induced suspensions (ProtocolLPP and
	// DPCP-p local resources).
	Suspensions int64
}

// New builds a simulator for the taskset under the partition. Every global
// resource must already be placed.
func New(ts *model.Taskset, p *partition.Partition, cfg Config) (*Sim, error) {
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("sim: non-positive horizon")
	}
	if cfg.HardStop == 0 {
		cfg.HardStop = 4 * cfg.Horizon
	}
	s := &Sim{ts: ts, p: p, cfg: cfg, tasks: make(map[rt.TaskID]*taskState)}
	s.metrics.MaxResponse = make(map[rt.TaskID]rt.Time)

	for k := 0; k < ts.NumProcs; k++ {
		s.procs = append(s.procs, &procState{id: rt.ProcID(k)})
	}
	for _, t := range ts.Tasks {
		st := &taskState{t: t, procs: p.Procs(t.ID)}
		if len(st.procs) == 0 {
			return nil, fmt.Errorf("sim: task %d has no processors", t.ID)
		}
		s.tasks[t.ID] = st
		for _, k := range st.procs {
			s.procs[k].owner = st
		}
	}
	for q := 0; q < ts.NumResources; q++ {
		rid := rt.ResourceID(q)
		rs := &resState{q: rid, global: ts.IsGlobal(rid), proc: rt.NoProc, ceiling: ts.Ceiling(rid)}
		if rs.global && cfg.Protocol == ProtocolDPCPp {
			rs.proc = p.ResourceProc(rid)
			if rs.proc == rt.NoProc {
				return nil, fmt.Errorf("sim: global resource %d unplaced", q)
			}
		}
		s.res = append(s.res, rs)
	}
	return s, nil
}

func (s *Sim) push(e *event) {
	e.seq = s.seq
	s.seq++
	heap.Push(&s.eq, e)
}

// Run executes the simulation and returns its metrics. Invariant
// violations detected during the run are returned by Violations.
func (s *Sim) Run() (Metrics, error) {
	for _, t := range s.ts.Tasks {
		off := s.cfg.Offsets[t.ID]
		s.push(&event{at: off, kind: evRelease, task: s.tasks[t.ID]})
	}

	for s.eq.Len() > 0 {
		e := heap.Pop(&s.eq).(*event)
		if e.at > s.cfg.HardStop {
			return s.metrics, fmt.Errorf("sim: hard stop at %s with work outstanding",
				rt.FormatTime(s.cfg.HardStop))
		}
		if e.at < s.now {
			return s.metrics, fmt.Errorf("sim: time went backwards (%d < %d)", e.at, s.now)
		}
		s.now = e.at
		switch e.kind {
		case evRelease:
			s.handleRelease(e.task)
		case evSegEnd:
			if e.proc.token == e.tok {
				s.handleSegEnd(e.proc)
			}
		}
		// Process every event at this instant before scheduling.
		for s.eq.Len() > 0 && s.eq[0].at == s.now {
			e2 := heap.Pop(&s.eq).(*event)
			switch e2.kind {
			case evRelease:
				s.handleRelease(e2.task)
			case evSegEnd:
				if e2.proc.token == e2.tok {
					s.handleSegEnd(e2.proc)
				}
			}
		}
		s.schedule()
		s.checkInvariants()
	}
	return s.metrics, nil
}

// Violations returns the invariant violations detected during the run.
func (s *Sim) Violations() []string { return s.violations }

// Trace returns the recorded execution spans (CollectTrace must be set).
func (s *Sim) Trace() []Span { return s.trace }

// handleRelease releases one job of the task and schedules the next
// release if still before the horizon.
func (s *Sim) handleRelease(st *taskState) {
	job := &jobState{
		task:     st,
		idx:      int64(len(st.jobs)),
		release:  s.now,
		deadline: s.now + st.t.Deadline,
		finish:   -1,
	}
	st.jobs = append(st.jobs, job)
	s.metrics.Jobs++

	for x := range st.t.Vertices {
		vr := &vertexRun{
			job:       job,
			x:         rt.VertexID(x),
			segs:      BuildSegments(st.t, rt.VertexID(x), s.cfg.Placement),
			predsLeft: len(st.t.Pred(rt.VertexID(x))),
			holding:   NoResource,
		}
		vr.remaining = vr.segs[0].Dur
		job.verts = append(job.verts, vr)
	}
	job.vertsLeft = len(job.verts)
	for _, vr := range job.verts {
		if vr.predsLeft == 0 {
			s.activate(vr)
		}
	}

	if next := s.now + st.t.Period; next < s.cfg.Horizon {
		s.push(&event{at: next, kind: evRelease, task: st})
	}
}

// activate routes a vertex that just became pending (or just finished a
// segment) according to its current segment: Rule 1-3 of Sec. III-C.
func (s *Sim) activate(vr *vertexRun) {
	if vr.segIdx >= len(vr.segs) {
		s.finishVertex(vr)
		return
	}
	seg := vr.segs[vr.segIdx]
	if vr.remaining == 0 {
		// Zero-length segment: consume immediately.
		vr.segIdx++
		if vr.segIdx < len(vr.segs) {
			vr.remaining = vr.segs[vr.segIdx].Dur
		}
		s.activate(vr)
		return
	}
	if !seg.IsCS() {
		vr.job.task.rqN = append(vr.job.task.rqN, vr)
		return
	}
	rs := s.res[seg.Res]
	if s.cfg.Protocol == ProtocolDPCPp && rs.global {
		s.issueGlobalRequest(vr, rs)
		return
	}
	// Locally-executed resource — spinning (ProtocolSpin) or a semaphore
	// (DPCP-p local resources per Rules 1 and 2, every resource under
	// LPP): the lock attempt happens when a processor picks the vertex
	// (startVertex). A semaphore can only be acquired from running code;
	// acquiring it from the ready queue would let a vertex hold the lock
	// while waiting for a processor behind its own task's non-critical
	// work, inflating other tasks' FIFO waits beyond any analytical bound
	// (the differential audit caught exactly this under LPP).
	vr.job.task.rqN = append(vr.job.task.rqN, vr)
}

// issueGlobalRequest implements Rule 3.
func (s *Sim) issueGlobalRequest(vr *vertexRun, rs *resState) {
	req := &request{
		id:        s.reqSeq,
		vr:        vr,
		res:       rs,
		prio:      vr.job.task.t.Priority,
		issued:    s.now,
		granted:   -1,
		remaining: vr.segs[vr.segIdx].Dur,
		blockedBy: make(map[int64]bool),
	}
	s.reqSeq++
	s.pending = append(s.pending, req)
	k := s.procs[rs.proc]
	if s.grantAllowed(k, req) {
		s.grant(k, req)
	} else {
		k.sqG = append(k.sqG, req)
		// A lower-priority request already executing on the processor
		// blocks this one from the moment it is issued (Lemma 1 ledger).
		if k.curReq != nil && k.curReq.prio < req.prio {
			req.blockedBy[k.curReq.id] = true
		}
	}
}

// grantAllowed evaluates the priority-ceiling rule: the request's effective
// priority (pi^H + prio) must exceed the processor ceiling (max ceiling of
// locked resources on the processor). Resource must also be free.
func (s *Sim) grantAllowed(k *procState, req *request) bool {
	if req.res.lockedBy != nil {
		return false
	}
	if s.cfg.DisableCeiling {
		return true
	}
	return req.prio > s.processorCeiling(k)
}

// processorCeiling returns Pi^p_k(t) expressed in base-priority units.
func (s *Sim) processorCeiling(k *procState) rt.Priority {
	ceiling := rt.Priority(0)
	for _, rs := range s.res {
		if rs.global && rs.proc == k.id && rs.lockedBy != nil && rs.ceiling > ceiling {
			ceiling = rs.ceiling
		}
	}
	return ceiling
}

func (s *Sim) grant(k *procState, req *request) {
	req.res.lockedBy = req
	req.granted = s.now
	if w := s.now - req.issued; w > s.metrics.MaxRequestWait {
		s.metrics.MaxRequestWait = w
	}
	k.rqG = append(k.rqG, req)
}

// finishRequest implements Rule 4 for a global request.
func (s *Sim) finishRequest(k *procState, req *request) {
	req.finished = s.now
	req.res.lockedBy = nil
	s.metrics.Requests++
	if n := len(req.blockedBy); n > s.metrics.MaxLowPrioBlockers {
		s.metrics.MaxLowPrioBlockers = n
	}
	s.removePending(req)
	s.removeFromRQG(k, req)

	// Ceiling dropped: grant every suspended request that now qualifies,
	// highest priority first.
	for {
		best := -1
		for i, cand := range k.sqG {
			if s.grantAllowed(k, cand) && (best < 0 || cand.prio > k.sqG[best].prio ||
				(cand.prio == k.sqG[best].prio && cand.id < k.sqG[best].id)) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		cand := k.sqG[best]
		k.sqG = append(k.sqG[:best], k.sqG[best+1:]...)
		s.grant(k, cand)
	}

	// The issuing vertex resumes: consume the CS segment and re-enter RQN.
	vr := req.vr
	vr.segIdx++
	if vr.segIdx < len(vr.segs) {
		vr.remaining = vr.segs[vr.segIdx].Dur
	}
	s.activate(vr)
}

// finishLocalCS handles the end of a locally-executed critical section:
// Rules 2/4 for DPCP-p local resources, semaphore hand-off for LPP, and
// spinner hand-off for ProtocolSpin.
func (s *Sim) finishLocalCS(vr *vertexRun) {
	rs := s.res[vr.holding]
	rs.lockedBy = nil
	vr.holding = NoResource
	if len(rs.waiters) > 0 {
		next := rs.waiters[0]
		rs.waiters = rs.waiters[1:]
		rs.lockedBy = next
		next.holding = rs.q
		if s.cfg.Protocol == ProtocolSpin {
			s.grantToSpinner(next)
		} else {
			next.job.task.rqL = append(next.job.task.rqL, next)
		}
	}
	vr.segIdx++
	if vr.segIdx < len(vr.segs) {
		vr.remaining = vr.segs[vr.segIdx].Dur
	}
	s.activate(vr) // Rule 4: back to RQN (or next CS / completion)
}

// grantToSpinner converts a busy-waiting vertex into the lock holder: its
// processor stops spinning and starts executing the critical section.
func (s *Sim) grantToSpinner(next *vertexRun) {
	for _, k := range s.procs {
		if k.curVert != next || !k.spinning {
			continue
		}
		s.metrics.SpinTime += s.now - k.started
		s.endSpan(k)
		k.spinning = false
		k.started = s.now
		k.token++
		seg := next.segs[next.segIdx]
		s.beginSpan(k, fmt.Sprintf("%s%s", next, segSuffix(seg)), true, false)
		s.push(&event{at: s.now + next.remaining, kind: evSegEnd, proc: k, tok: k.token})
		return
	}
	s.violate("spin grant: vertex %v not found spinning on any processor", next)
}

func (s *Sim) finishVertex(vr *vertexRun) {
	job := vr.job
	job.vertsLeft--
	for _, y := range job.task.t.Succ(vr.x) {
		succ := job.verts[y]
		succ.predsLeft--
		if succ.predsLeft == 0 {
			s.activate(succ)
		}
	}
	if job.vertsLeft == 0 {
		job.finish = s.now
		resp := job.finish - job.release
		if resp > s.metrics.MaxResponse[job.task.t.ID] {
			s.metrics.MaxResponse[job.task.t.ID] = resp
		}
		if job.finish > job.deadline {
			s.metrics.DeadlineMisses++
		}
	}
}

func (s *Sim) removePending(req *request) {
	for i, r := range s.pending {
		if r == req {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			return
		}
	}
}

func (s *Sim) removeFromRQG(k *procState, req *request) {
	for i, r := range k.rqG {
		if r == req {
			k.rqG = append(k.rqG[:i], k.rqG[i+1:]...)
			return
		}
	}
}

// handleSegEnd fires when the current work on a processor completes.
func (s *Sim) handleSegEnd(k *procState) {
	elapsed := s.now - k.started
	switch {
	case k.curReq != nil:
		req := k.curReq
		req.remaining -= elapsed
		s.endSpan(k)
		k.curReq = nil
		k.token++
		if req.remaining <= 0 {
			s.finishRequest(k, req)
		} else {
			// Should not happen: completions are scheduled exactly.
			k.rqG = append(k.rqG, req)
		}
	case k.curVert != nil:
		vr := k.curVert
		vr.remaining -= elapsed
		s.endSpan(k)
		k.curVert = nil
		k.token++
		if vr.remaining > 0 {
			s.requeueFront(vr)
			return
		}
		seg := vr.segs[vr.segIdx]
		if seg.IsCS() {
			s.finishLocalCS(vr)
		} else {
			vr.segIdx++
			if vr.segIdx < len(vr.segs) {
				vr.remaining = vr.segs[vr.segIdx].Dur
			}
			s.activate(vr)
		}
	}
}

// requeueFront returns a preempted (or exactly-resumed) vertex to the head
// of its ready queue so FIFO order is preserved.
func (s *Sim) requeueFront(vr *vertexRun) {
	st := vr.job.task
	if vr.holding != NoResource {
		st.rqL = append([]*vertexRun{vr}, st.rqL...)
	} else {
		st.rqN = append([]*vertexRun{vr}, st.rqN...)
	}
}

// schedule makes every processor execute the highest-ranked available work:
// agents (by task priority) outrank the owner task's vertices; RQL outranks
// RQN; both vertex queues are FIFO. It iterates to a fixpoint because a
// preemption on one processor can return a vertex to a ready queue that an
// earlier-visited sibling processor should pick up within the same instant.
func (s *Sim) schedule() {
	// Preemption chains are bounded by the processor count, but a popped
	// vertex suspending on a busy semaphore also counts as a change, so
	// the bound includes the ready backlog.
	ready := 0
	for _, st := range s.tasks {
		ready += len(st.rqL) + len(st.rqN)
	}
	for iter := 0; iter < 4*len(s.procs)+4+2*ready; iter++ {
		changed := false
		for _, k := range s.procs {
			if s.scheduleProc(k) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
	s.violate("scheduler did not reach a fixpoint")
}

// scheduleProc reports whether it changed the processor's assignment.
func (s *Sim) scheduleProc(k *procState) bool {
	// Highest-priority ready agent request on this processor.
	var top *request
	for _, r := range k.rqG {
		if r == k.curReq {
			continue
		}
		if top == nil || r.prio > top.prio || (r.prio == top.prio && r.id < top.id) {
			top = r
		}
	}

	if k.curReq != nil {
		if top != nil && top.prio > k.curReq.prio {
			s.preemptRequest(k)
			s.startRequest(k, top)
			return true
		}
		return false
	}
	if k.curVert != nil {
		if k.spinning {
			// Non-preemptive busy-waiting: the spinner keeps the
			// processor until granted.
			return false
		}
		if top != nil {
			s.preemptVertex(k)
			s.startRequest(k, top)
			return true
		}
		// ProtocolLPP: boosting is preemptive — a ready lock holder
		// outranks every non-holding vertex on the processor.
		if s.cfg.Protocol == ProtocolLPP && k.curVert.holding == NoResource {
			if holder := s.bestHolderTask(k); holder != nil {
				s.preemptVertex(k)
				s.startNextVertex(k, holder)
				return true
			}
		}
		return false
	}
	// Idle processor.
	if top != nil {
		s.startRequest(k, top)
		return true
	}
	changed := false
	for {
		best := s.bestVertexTask(k)
		if best == nil {
			return changed
		}
		if s.startNextVertex(k, best) {
			return true
		}
		changed = true // popped vertex suspended; try the next candidate
	}
}

// bestVertexTask returns the processor's owner when it has ready
// vertices, or nil.
func (s *Sim) bestVertexTask(k *procState) *taskState {
	if st := k.owner; st != nil && len(st.rqL)+len(st.rqN) > 0 {
		return st
	}
	return nil
}

// bestHolderTask returns the processor's owner when it has a ready lock
// holder (non-empty RQL), or nil. Used by the LPP preemptive-boosting rule.
func (s *Sim) bestHolderTask(k *procState) *taskState {
	if st := k.owner; st != nil && len(st.rqL) > 0 {
		return st
	}
	return nil
}

// startNextVertex pops the task's RQL (first) or RQN and runs it on k. It
// reports whether work actually started: a popped vertex whose first action
// is acquiring a busy semaphore suspends into the resource's wait list
// instead, leaving the processor free (but queues changed).
func (s *Sim) startNextVertex(k *procState, st *taskState) bool {
	if len(st.rqL) > 0 {
		vr := st.rqL[0]
		st.rqL = st.rqL[1:]
		return s.startVertex(k, vr)
	}
	vr := st.rqN[0]
	st.rqN = st.rqN[1:]
	return s.startVertex(k, vr)
}

func (s *Sim) preemptRequest(k *procState) {
	req := k.curReq
	req.remaining -= s.now - k.started
	s.endSpan(k)
	k.curReq = nil
	k.token++
	// Still in rqG; it will be rescheduled by priority.
}

func (s *Sim) preemptVertex(k *procState) {
	vr := k.curVert
	vr.remaining -= s.now - k.started
	s.endSpan(k)
	k.curVert = nil
	k.token++
	s.requeueFront(vr)
}

func (s *Sim) startRequest(k *procState, req *request) {
	k.curReq = req
	k.started = s.now
	k.token++
	s.beginSpan(k, fmt.Sprintf("agent:%s@l%d", req.vr, req.res.q), true, true)
	s.push(&event{at: s.now + req.remaining, kind: evSegEnd, proc: k, tok: k.token})
	// Record Lemma-1 blocking: every pending higher-priority request on
	// this processor is being delayed by this lower-priority execution.
	for _, p := range s.pending {
		if p.res.proc == k.id && p != req && p.granted < 0 && p.prio > req.prio {
			p.blockedBy[req.id] = true
		}
	}
}

// startVertex runs the vertex on k, attempting its current segment's lock
// first when that segment is a locally-executed critical section. It
// reports whether the processor is now occupied: false means the vertex
// suspended on a busy semaphore (LPP, or a DPCP-p local resource) and the
// processor remains free for other work.
func (s *Sim) startVertex(k *procState, vr *vertexRun) bool {
	seg := vr.segs[vr.segIdx]
	if seg.IsCS() && vr.holding != seg.Res {
		rs := s.res[seg.Res]
		switch {
		case rs.lockedBy == nil:
			rs.lockedBy = vr
			vr.holding = rs.q
		case s.cfg.Protocol == ProtocolSpin:
			// Busy: spin in place, keeping the processor (FIFO by spin
			// start). No completion event; grantToSpinner resumes us.
			k.curVert = vr
			k.spinning = true
			k.started = s.now
			k.token++
			rs.waiters = append(rs.waiters, vr)
			s.beginSpan(k, fmt.Sprintf("%s:spin:l%d", vr, seg.Res), false, false)
			return true
		default:
			// Busy semaphore: suspend into SQ_i without occupying the
			// processor; finishLocalCS hands the lock (and RQL entry) over.
			rs.waiters = append(rs.waiters, vr)
			s.metrics.Suspensions++
			return false
		}
	}
	k.curVert = vr
	k.started = s.now
	k.token++
	s.beginSpan(k, fmt.Sprintf("%s%s", vr, segSuffix(seg)), seg.IsCS(), false)
	s.push(&event{at: s.now + vr.remaining, kind: evSegEnd, proc: k, tok: k.token})
	return true
}

func segSuffix(seg Segment) string {
	if seg.IsCS() {
		return fmt.Sprintf(":l%d", seg.Res)
	}
	return ""
}

func (s *Sim) beginSpan(k *procState, what string, isCS, agent bool) {
	if !s.cfg.CollectTrace {
		return
	}
	s.trace = append(s.trace, Span{Proc: k.id, From: s.now, To: -1, What: what, IsCS: isCS, Agent: agent})
}

func (s *Sim) endSpan(k *procState) {
	if !s.cfg.CollectTrace {
		return
	}
	for i := len(s.trace) - 1; i >= 0; i-- {
		if s.trace[i].Proc == k.id && s.trace[i].To < 0 {
			if s.trace[i].From == s.now {
				// Zero-length span: drop it.
				s.trace = append(s.trace[:i], s.trace[i+1:]...)
			} else {
				s.trace[i].To = s.now
			}
			return
		}
	}
}
