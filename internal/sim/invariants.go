package sim

import (
	"fmt"
	"sort"

	"dpcpp/internal/rt"
)

// checkInvariants runs after every scheduling step. Violations are recorded
// rather than fatal so a test can inspect all of them.
func (s *Sim) checkInvariants() {
	s.checkMutualExclusion()
	s.checkCeilingRule()
	s.checkWorkConservation()
	s.checkAgentPriority()
	s.checkLemma1()
}

func (s *Sim) violate(format string, args ...interface{}) {
	if len(s.violations) < 100 {
		s.violations = append(s.violations,
			fmt.Sprintf("t=%s: %s", rt.FormatTime(s.now), fmt.Sprintf(format, args...)))
	}
}

// checkMutualExclusion: at most one executor per locked resource, and every
// executing critical section holds its lock.
func (s *Sim) checkMutualExclusion() {
	execs := make(map[rt.ResourceID]int)
	for _, k := range s.procs {
		if k.curReq != nil {
			execs[k.curReq.res.q]++
			if k.curReq.res.lockedBy != k.curReq {
				s.violate("request %v executes l%d without holding the lock", k.curReq.vr, k.curReq.res.q)
			}
		}
		if k.curVert != nil && !k.spinning {
			seg := k.curVert.segs[k.curVert.segIdx]
			if seg.IsCS() {
				execs[seg.Res]++
				if s.res[seg.Res].lockedBy != k.curVert {
					s.violate("vertex %v executes local CS l%d without the lock", k.curVert, seg.Res)
				}
			}
		}
	}
	// Violations are part of the audit's serialized evidence; iterate in
	// sorted resource order so identical runs report identical bytes.
	qs := make([]rt.ResourceID, 0, len(execs))
	for q := range execs {
		qs = append(qs, q)
	}
	sort.Slice(qs, func(i, j int) bool { return qs[i] < qs[j] })
	for _, q := range qs {
		if execs[q] > 1 {
			s.violate("mutual exclusion violated on l%d: %d concurrent executors", q, execs[q])
		}
	}
}

// checkCeilingRule: every granted-and-unfinished request must have had
// priority above the ceiling of the other locked resources on its
// processor at grant time. We check the weaker steady-state form: two
// locked resources on one processor imply the later-granted holder
// outranks the earlier resource's ceiling. With DisableCeiling the check
// is skipped.
func (s *Sim) checkCeilingRule() {
	if s.cfg.DisableCeiling || s.cfg.Protocol != ProtocolDPCPp {
		return
	}
	perProc := make(map[rt.ProcID][]*request)
	for _, rs := range s.res {
		if !rs.global || rs.lockedBy == nil {
			continue
		}
		req := rs.lockedBy.(*request)
		perProc[rs.proc] = append(perProc[rs.proc], req)
	}
	// Sorted processor order keeps the violation log byte-deterministic.
	procs := make([]rt.ProcID, 0, len(perProc))
	for k := range perProc {
		procs = append(procs, k)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	for _, k := range procs {
		reqs := perProc[k]
		for _, a := range reqs {
			for _, b := range reqs {
				if a == b || a.granted < b.granted {
					continue
				}
				// a granted at or after b: a must outrank b's resource ceiling.
				if a.granted > b.granted && a.prio <= b.res.ceiling {
					s.violate("ceiling violated on proc %d: request prio %d granted over locked l%d (ceiling %d)",
						k, a.prio, b.res.q, b.res.ceiling)
				}
			}
		}
	}
}

// checkWorkConservation: no processor may idle while its owner has ready
// vertices.
func (s *Sim) checkWorkConservation() {
	for _, k := range s.procs {
		if k.busy() {
			continue
		}
		if len(k.rqG) > 0 {
			s.violate("proc %d idle with ready agent requests", k.id)
		}
		if st := k.owner; st != nil && len(st.rqN)+len(st.rqL) > 0 {
			s.violate("proc %d idle while task %d has %d ready vertices",
				k.id, st.t.ID, len(st.rqN)+len(st.rqL))
		}
	}
}

// checkAgentPriority: agents outrank normal vertices — a processor never
// runs a vertex while a ready agent request waits, and never runs a
// lower-priority agent while a higher-priority one is ready.
func (s *Sim) checkAgentPriority() {
	for _, k := range s.procs {
		if k.curVert != nil && len(k.rqG) > 0 {
			s.violate("proc %d runs a vertex while %d agent requests are ready", k.id, len(k.rqG))
		}
		if k.curReq != nil {
			for _, r := range k.rqG {
				if r != k.curReq && r.prio > k.curReq.prio {
					s.violate("proc %d runs agent prio %d while prio %d is ready",
						k.id, k.curReq.prio, r.prio)
				}
			}
		}
	}
}

// checkLemma1: with the ceiling enabled, no pending request may have been
// blocked by more than one distinct lower-priority request.
func (s *Sim) checkLemma1() {
	if s.cfg.DisableCeiling || s.cfg.Protocol != ProtocolDPCPp {
		return
	}
	for _, req := range s.pending {
		if len(req.blockedBy) > 1 {
			s.violate("Lemma 1 violated: request by %v blocked by %d lower-priority requests",
				req.vr, len(req.blockedBy))
		}
	}
}
