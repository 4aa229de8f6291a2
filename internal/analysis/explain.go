package analysis

import (
	"fmt"
	"strings"

	"dpcpp/internal/partition"
	"dpcpp/internal/rt"
)

// Breakdown decomposes the Theorem 1 bound of one task into the paper's
// delay categories, evaluated for the worst-case path at the response-time
// fixed point. It is diagnostic output: Total equals the WCRT bound the
// analyzer reports.
type Breakdown struct {
	TaskID rt.TaskID
	// PathLength is L(lambda) of the worst path (EN: L*).
	PathLength rt.Time
	// InterTaskBlocking is B_i (Lemma 3).
	InterTaskBlocking rt.Time
	// IntraTaskBlocking is b_i (Lemma 4).
	IntraTaskBlocking rt.Time
	// IntraInterference is I^intra_i (Lemma 5), before the 1/m_i division.
	IntraInterference rt.Time
	// AgentInterference is I^A_i (Lemma 6), before the 1/m_i division.
	AgentInterference rt.Time
	// Procs is m_i.
	Procs int64
	// Total is the resulting bound (Infinity when unschedulable).
	Total rt.Time
	// PathsConsidered counts the candidate path views evaluated: complete
	// paths collapse by per-resource request-vector signature before
	// evaluation, so this is the number of distinct signatures (1 for EN).
	PathsConsidered int
	// ENFallback reports that the path count exceeded the cap and the EN
	// bounds were used.
	ENFallback bool
}

// String renders the breakdown in one line per component.
func (b Breakdown) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "task %d (m_i=%d, %d paths", b.TaskID, b.Procs, b.PathsConsidered)
	if b.ENFallback {
		sb.WriteString(", EN fallback")
	}
	sb.WriteString(")\n")
	fmt.Fprintf(&sb, "  L(lambda)         %12s\n", rt.FormatTime(b.PathLength))
	fmt.Fprintf(&sb, "  inter-task B      %12s\n", rt.FormatTime(b.InterTaskBlocking))
	fmt.Fprintf(&sb, "  intra-task b      %12s\n", rt.FormatTime(b.IntraTaskBlocking))
	fmt.Fprintf(&sb, "  I_intra / m_i     %12s\n", rt.FormatTime(rt.CeilDiv(b.IntraInterference, maxI64(b.Procs, 1))))
	fmt.Fprintf(&sb, "  I_agent / m_i     %12s\n", rt.FormatTime(rt.CeilDiv(b.AgentInterference, maxI64(b.Procs, 1))))
	fmt.Fprintf(&sb, "  total R           %12s\n", rt.FormatTime(b.Total))
	return sb.String()
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Explain analyzes every task under the partition and returns per-task
// breakdowns of the worst path, in descending priority order.
func (a *DPCPp) Explain(p *partition.Partition) []Breakdown {
	wcrts := make(map[rt.TaskID]rt.Time, len(a.ts.Tasks))
	out := make([]Breakdown, 0, len(a.ts.Tasks))
	for _, t := range a.ts.ByPriorityDesc() {
		ctx := a.buildCtx(p, t, wcrts)
		fallbackBefore := a.Fallbacks
		views := a.pathViews(t)

		worst := Breakdown{TaskID: t.ID, Procs: ctx.mi, PathsConsidered: len(views)}
		for i := range views {
			bd := a.explainView(ctx, &views[i])
			if bd.Total > worst.Total || i == 0 {
				keep := worst
				worst = bd
				worst.TaskID = t.ID
				worst.Procs = ctx.mi
				worst.PathsConsidered = keep.PathsConsidered
			}
		}
		worst.ENFallback = a.Fallbacks > fallbackBefore
		wcrts[t.ID] = worst.Total
		out = append(out, worst)
	}
	return out
}

// explainView computes the fixed point for one view and re-evaluates each
// component at it.
func (a *DPCPp) explainView(ctx *taskCtx, v *pathView) Breakdown {
	t := ctx.task
	r := a.pathWCRT(ctx, v)
	bd := Breakdown{
		PathLength: v.length,
		Total:      r,
	}
	at := r
	if at >= rt.Infinity {
		at = t.Deadline // evaluate the components at the deadline
	}

	co := ctx.coScratch
	offCoWork(ctx, v, co)
	bd.IntraTaskBlocking = a.intraBlocking(ctx, v, co)
	bd.IntraInterference = v.offNonCrit
	for _, q := range ctx.localRes {
		bd.IntraInterference = rt.SatAdd(bd.IntraInterference, rt.SatMul(v.offPath[q], t.CS(q)))
	}
	for i := range ctx.procs {
		eps := a.epsilon(ctx, &ctx.procs[i], v, co[i])
		zeta := etaSum(ctx.procs[i].other, at)
		if eps < zeta {
			bd.InterTaskBlocking = rt.SatAdd(bd.InterTaskBlocking, eps)
		} else {
			bd.InterTaskBlocking = rt.SatAdd(bd.InterTaskBlocking, zeta)
		}
	}
	var iaStatic rt.Time
	for _, q := range ctx.clusterRes {
		iaStatic = rt.SatAdd(iaStatic, rt.SatMul(v.offPath[q], t.CS(q)))
	}
	bd.AgentInterference = rt.SatAdd(etaSum(ctx.cluster, at), iaStatic)
	return bd
}
