package analysis

import (
	"dpcpp/internal/model"
	"dpcpp/internal/partition"
	"dpcpp/internal/rt"
	"dpcpp/internal/rta"
)

// DPCPp is the response-time analysis of Sec. IV. With en=false it
// evaluates Theorem 1 exactly per candidate worst-case path (DPCP-p-EP),
// using the signature-collapsed path views of model.EnumerateViews: paths
// with identical per-resource request vectors yield identical Theorem 1
// terms except for L(lambda) and the on-path non-critical WCET, in which
// the bound is monotone, so only the per-signature maximum is evaluated.
// With en=true, or whenever a DAG has more than pathCap complete paths, it
// substitutes the per-term path extremes computed by DAG dynamic
// programming (DPCP-p-EN).
//
// Every analyzer computes through a Scratch (see scratch.go): NewDPCPp owns
// a private one, TestWith threads a caller-recycled one so steady-state
// analysis rounds allocate nothing.
type DPCPp struct {
	ts      *model.Taskset
	pathCap int
	en      bool
	sc      *Scratch

	// byPrio caches ByPriorityDesc for the analyzer's lifetime: the sort
	// result (including its tie order, which feeds the eta terms) is fixed
	// per taskset, and WCRTs runs once per partitioning round.
	byPrio []*model.Task

	// Fallbacks counts tasks analyzed with EN bounds because their path
	// count exceeded pathCap (diagnostics only). It increments once per
	// per-task view construction, including cache hits, mirroring the
	// pre-cache behavior.
	Fallbacks int

	// Delta-analysis hooks (see delta.go); all nil outside incremental
	// runs, costing the production path a nil check each.
	//
	// cap, when set, snapshots each converged task's per-view fixed points
	// and epsilon memo rows; it is reset at the start of every WCRTs pass
	// so it always holds the latest round. warmFix seeds the next
	// taskWCRT's fixed-point iterates (element-wise max with the cold
	// start); epsSeed preloads epsilon memo rows after taskReset. Both are
	// per-task: the delta analyzer sets them immediately before a taskWCRT
	// call and clears them after.
	cap     *deltaCapture
	warmFix []rt.Time
	epsSeed []epsRow
}

type cachedViews struct {
	views    []pathView
	fallback bool
}

// NewDPCPp returns a DPCP-p analyzer over the taskset with its own private
// scratch. Use TestWith to recycle scratch across analyses.
func NewDPCPp(ts *model.Taskset, pathCap int, en bool) *DPCPp {
	return newDPCPp(NewScratch(), ts, pathCap, en)
}

func newDPCPp(sc *Scratch, ts *model.Taskset, pathCap int, en bool) *DPCPp {
	sc.analyzerReset()
	return &DPCPp{ts: ts, pathCap: pathCap, en: en, sc: sc,
		byPrio: ts.ByPriorityDesc()}
}

// WCRTs implements partition.Analyzer: it returns every task's bound,
// analyzing tasks from highest to lowest priority so that eta terms can use
// the already-computed bounds of higher-priority tasks (Sec. IV-B).
//
// The returned map is scratch-owned and valid until the next WCRTs or
// WCRTsUntilMiss call on this analyzer; internal/partition copies it into
// every Result it hands out.
func (a *DPCPp) WCRTs(p *partition.Partition) map[rt.TaskID]rt.Time {
	return a.analyze(p, false)
}

// WCRTsUntilMiss implements partition.UntilMissAnalyzer: the same pass as
// WCRTs, ended after the first task whose bound exceeds its deadline. A
// lower-priority bound never feeds a higher-priority one, so every bound
// it returns equals WCRTs'. Delta capture needs every task's internals, so
// a capturing analyzer always runs the full pass.
func (a *DPCPp) WCRTsUntilMiss(p *partition.Partition) map[rt.TaskID]rt.Time {
	return a.analyze(p, a.cap == nil)
}

// analyze is the one priority-ordered pass behind WCRTs and
// WCRTsUntilMiss; untilMiss ends it at the first deadline miss.
func (a *DPCPp) analyze(p *partition.Partition, untilMiss bool) map[rt.TaskID]rt.Time {
	round := a.sc.stageStart()
	if a.cap != nil {
		a.cap.reset()
	}
	wcrts := a.sc.wcrts
	clear(wcrts)
	for _, t := range a.byPrio {
		r := a.taskWCRT(p, t, wcrts)
		wcrts[t.ID] = r
		if untilMiss && r > t.Deadline {
			break
		}
	}
	a.sc.stageEnd(StageRound, round)
	return wcrts
}

// everyRoundUntilMiss is the analyzer of the verdict-only path: every
// round, the final one included, ends at its first deadline miss. The
// verdict and the round count equal the full path's; the bounds after the
// final round's miss are missing from the Result's WCRT map.
type everyRoundUntilMiss struct{ a *DPCPp }

func (e everyRoundUntilMiss) WCRTs(p *partition.Partition) map[rt.TaskID]rt.Time {
	return e.a.WCRTsUntilMiss(p)
}

// pathView abstracts "one candidate worst-case path": a signature-collapsed
// view over enumerated paths (EP) or the per-term extremes over all paths
// (EN).
type pathView struct {
	length     rt.Time // L(lambda) (EN: L*)
	offNonCrit rt.Time // non-critical WCET of vertices not on the path
	onPath     []int64 // N^lambda_{i,q} (EN: max over paths)
	offPath    []int64 // N_{i,q} - N^lambda_{i,q} (EN: N - min over paths)
}

func (a *DPCPp) pathViews(t *model.Task) []pathView {
	c, ok := a.sc.viewCache[t.ID]
	if !ok {
		start := a.sc.stageStart()
		c = a.buildViews(t)
		a.sc.stageEnd(StageViews, start)
		a.sc.viewCache[t.ID] = c
	}
	if c.fallback {
		a.Fallbacks++
	}
	return c.views
}

func (a *DPCPp) buildViews(t *model.Task) cachedViews {
	nr := a.ts.NumResources
	s := a.sc
	if !a.en {
		var pvs []model.PathView
		var ok bool
		if a.cap != nil {
			// Delta runs compile the collapse structure alongside the
			// enumeration so later WCET-only patches can replay it instead
			// of re-enumerating (see model.ViewPlan).
			var plan *model.ViewPlan
			pvs, plan, ok = t.EnumerateViewsPlan(a.pathCap, &s.vs)
			if ok {
				a.cap.plans[t.ID] = plan
			}
		} else {
			pvs, ok = t.EnumerateViewsScratch(a.pathCap, &s.vs)
		}
		if ok {
			// The enumerated views borrow s.vs until its next call; convert
			// them immediately into analyzer-lifetime arena storage (the
			// view cache spans partition rounds). One flat backing array
			// holds every view's request vectors.
			views := s.pviews.alloc(len(pvs))
			flat := s.flat.alloc(2 * nr * len(pvs))
			totalNonCrit := t.NonCritWCET()
			for i := range pvs {
				pv := &pvs[i]
				on := flat[2*i*nr : (2*i+1)*nr : (2*i+1)*nr]
				off := flat[(2*i+1)*nr : (2*i+2)*nr : (2*i+2)*nr]
				for q := 0; q < nr; q++ {
					n := pv.Requests(rt.ResourceID(q))
					on[q] = n
					off[q] = t.NumRequests(rt.ResourceID(q)) - n
				}
				views[i] = pathView{
					length:     pv.Length,
					offNonCrit: totalNonCrit - pv.NonCrit,
					onPath:     on,
					offPath:    off,
				}
			}
			return cachedViews{views: views}
		}
		return cachedViews{views: a.enView(t), fallback: true}
	}
	return cachedViews{views: a.enView(t)}
}

// enView builds the single path-oblivious EN view.
func (a *DPCPp) enView(t *model.Task) []pathView {
	nr := a.ts.NumResources
	s := a.sc
	b := t.ComputePathBounds()
	views := s.pviews.alloc(1)
	on := s.flat.alloc(nr)
	off := s.flat.alloc(nr)
	for q := 0; q < nr; q++ {
		on[q] = b.MaxReq[q]
		off[q] = t.NumRequests(rt.ResourceID(q)) - b.MinReq[q]
	}
	views[0] = pathView{
		length:     b.MaxLength,
		offNonCrit: t.NonCritWCET() - b.MinNonCrit,
		onPath:     on,
		offPath:    off,
	}
	return views
}

// procCtx carries the per-processor precomputations for one analyzed task:
// the beta and gamma terms of Lemma 2 and the zeta term of Lemma 3.
type procCtx struct {
	proc rt.ProcID
	res  []rt.ResourceID // global resources placed here
	// resCS[j] = L_{i,res[j]}, the analyzed task's CS length per resource,
	// hoisted out of the per-view loops.
	resCS []rt.Time

	beta rt.Time // max lower-priority CS with ceiling >= pi_i (Lemma 2)

	// gamma terms: per higher-priority task h, its per-job CS work on the
	// resources of this processor plus its (T, R) for the eta function.
	hp []etaTerm
	// zeta terms: per other task j (any priority), its per-job CS work here.
	other []etaTerm
}

// taskCtx bundles everything Theorem 1 needs for one task. It lives inside
// the analyzer's Scratch and every slice below is arena-backed: a taskCtx
// is valid only until the next buildCtx call on the same analyzer.
type taskCtx struct {
	task    *model.Task
	mi      int64
	procs   []procCtx // processors hosting at least one global resource
	cluster []etaTerm // Lemma 6: other tasks' CS work on this task's cluster
	// clusterRes are the global resources on this task's own cluster.
	clusterRes []rt.ResourceID
	// localRes are the local resources the task uses.
	localRes []rt.ResourceID

	// localCS / clusterCS cache the task's CS length per localRes /
	// clusterRes entry, hoisted out of the per-view loops.
	localCS   []rt.Time
	clusterCS []rt.Time

	// epsMemo caches the Lemma 2 per-request blocking bound across the
	// per-view loop: the W fixed point depends on the view only through
	// base = L_{i,q} + off-path co-located CS work + beta, so views
	// sharing a base (the common case after signature collapse) reuse it.
	// rt.Infinity marks a diverged recurrence.
	epsMemo *epsTable
	// epsScratch and coScratch hold the per-processor epsilon values and
	// off-path co-located CS work (offCoWork) of the view under evaluation
	// in the single-view path (pathWCRT: Explain and reference
	// implementations); the batched path keeps its own flat arrays.
	epsScratch []rt.Time
	coScratch  []rt.Time

	// kern fuses the r-dependent sums of the batched Theorem 1 step
	// (taskWCRT): it is built over the procs' zeta terms and cluster.
	kern etaKernel
}

// epsKey identifies one Lemma 2 fixed-point computation within a task's
// analysis round.
type epsKey struct {
	proc rt.ProcID
	base rt.Time
}

func (a *DPCPp) buildCtx(p *partition.Partition, t *model.Task,
	wcrts map[rt.TaskID]rt.Time) *taskCtx {

	ts := a.ts
	s := a.sc
	s.taskReset()
	ctx := &s.ctx
	ctx.task = t
	ctx.mi = int64(p.NumProcs(t.ID))
	if ctx.mi == 0 {
		ctx.mi = 1
	}
	ctx.procs = ctx.procs[:0]
	ctx.cluster = nil
	ctx.clusterRes = nil
	ctx.clusterCS = nil

	nr := ts.NumResources
	localRes := s.resIDs.alloc(nr)[:0]
	localCS := s.times.alloc(nr)[:0]
	for q := 0; q < nr; q++ {
		rid := rt.ResourceID(q)
		if ts.IsLocal(rid) && t.UsesResource(rid) {
			localRes = append(localRes, rid)
			localCS = append(localCS, t.CS(rid))
		}
	}
	ctx.localRes, ctx.localCS = localRes, localCS

	// nOther bounds every eta-term list: each task other than t contributes
	// at most one term per list. Terms name their task by position in
	// ts.Tasks, which also indexes resps and the kernel's eta vector.
	nOther := len(ts.Tasks)
	resps := s.times.alloc(nOther)
	for j, other := range ts.Tasks {
		resps[j] = knownOrDeadline(wcrts, other)
	}
	kern := &ctx.kern
	kern.reset(s.times.allocZero(nOther), s.srcs.alloc(nOther), t.Deadline)
	for k := 0; k < ts.NumProcs; k++ {
		proc := rt.ProcID(k)
		res := p.ResourcesOn(proc)
		if len(res) == 0 {
			continue
		}
		pc := procCtx{proc: proc, res: res, resCS: s.times.alloc(len(res))}
		for j, u := range res {
			pc.resCS[j] = t.CS(u)
		}
		pc.hp = s.terms.alloc(nOther)[:0]
		pc.other = s.terms.alloc(nOther)[:0]
		for j, other := range ts.Tasks {
			if other.ID == t.ID {
				continue
			}
			var work rt.Time
			for _, u := range res {
				work = rt.SatAdd(work, other.CSWork(u))
			}
			if work == 0 {
				continue
			}
			term := etaTerm{period: other.Period, resp: resps[j], work: work, pos: j}
			pc.other = append(pc.other, term)
			kern.add(term)
			if other.Priority.Higher(t.Priority) {
				pc.hp = append(pc.hp, term)
			} else {
				// Lower-priority tasks contribute to beta: their longest
				// CS on a co-located resource whose ceiling reaches pi_i.
				for _, u := range res {
					if other.UsesResource(u) && ts.CeilingAtLeast(u, t.Priority) {
						if cs := other.CS(u); cs > pc.beta {
							pc.beta = cs
						}
					}
				}
			}
		}
		ctx.procs = append(ctx.procs, pc)
	}

	// Delta runs preload still-valid epsilon rows from the retained state
	// (taskReset just cleared the memo). The seed slice is sorted by
	// (proc, base); re-seeding reproduces exactly the entries the
	// from-scratch fixed points would compute (see Delta.ApplyTo).
	for _, row := range a.epsSeed {
		s.epsMemo.put(row.key, row.val)
	}
	ctx.epsMemo = &s.epsMemo
	ctx.epsScratch = s.times.alloc(len(ctx.procs))
	ctx.coScratch = s.times.alloc(len(ctx.procs))

	ctx.clusterRes = p.AppendClusterResources(s.resIDs.alloc(nr)[:0], t.ID)
	if len(ctx.clusterRes) > 0 {
		ctx.clusterCS = s.times.alloc(len(ctx.clusterRes))
		for j, u := range ctx.clusterRes {
			ctx.clusterCS[j] = t.CS(u)
		}
		cluster := s.terms.alloc(nOther)[:0]
		for j, other := range ts.Tasks {
			if other.ID == t.ID {
				continue
			}
			var work rt.Time
			for _, u := range ctx.clusterRes {
				work = rt.SatAdd(work, other.CSWork(u))
			}
			if work > 0 {
				term := etaTerm{period: other.Period, resp: resps[j], work: work, pos: j}
				cluster = append(cluster, term)
				kern.add(term)
			}
		}
		ctx.cluster = cluster
	}

	kern.seal()
	for i := range ctx.procs {
		kern.admit(ctx.procs[i].other)
	}
	kern.admit(ctx.cluster)
	return ctx
}

// taskWCRT evaluates Theorem 1 over every candidate path view of one task.
// The per-view constants (Lemmas 4 and 5, the static Lemma 6 term, and the
// Lemma 2/3 epsilons) are computed up front into flat batch arrays — the
// epsilons processor-major, so one processor's beta/gamma tables and its
// (proc, base) memo rows stay hot across the whole view batch — and the
// response-time fixed points of all views then iterate in lockstep via
// rta.FixPointBatch, streaming the shared eta tables once per wave instead
// of once per view. Each step evaluates every other task's eta_j(r) once,
// division-free, through the task's etaKernel and forms the zeta and
// cluster sums as dot products over it. Results are bit-identical
// to evaluating pathWCRT per view (the epequiv suite pins this against the
// per-path reference; FuzzEtaKernel pins the kernel against etaSum).
//
//schedlint:hotpath
func (a *DPCPp) taskWCRT(p *partition.Partition, t *model.Task,
	wcrts map[rt.TaskID]rt.Time) rt.Time {

	ctx := a.buildCtx(p, t, wcrts)
	views := a.pathViews(t)
	nv := len(views)
	np := len(ctx.procs)
	s := a.sc

	bs := s.times.alloc(nv)
	iIntras := s.times.alloc(nv)
	iaStatics := s.times.alloc(nv)
	xs := s.times.alloc(nv)
	eps := s.times.alloc(nv * np)
	done := s.bools.alloc(nv)

	for vi := range views {
		v := &views[vi]
		// eps holds each view's offCoWork until the epsilon pass below
		// replaces it, entry by entry, with the epsilon it feeds.
		co := eps[vi*np : (vi+1)*np]
		offCoWork(ctx, v, co)
		// Lemma 4: intra-task blocking (constant in r).
		b := a.intraBlocking(ctx, v, co)
		// Lemma 5: intra-task interference (constant in r).
		iIntra := v.offNonCrit
		for j, q := range ctx.localRes {
			iIntra = rt.SatAdd(iIntra, rt.SatMul(v.offPath[q], ctx.localCS[j]))
		}
		// Static off-path agent work on the own cluster (Lemma 6, Eq. 9).
		var iaStatic rt.Time
		for j, q := range ctx.clusterRes {
			iaStatic = rt.SatAdd(iaStatic, rt.SatMul(v.offPath[q], ctx.clusterCS[j]))
		}
		bs[vi], iIntras[vi], iaStatics[vi] = b, iIntra, iaStatic
		xs[vi] = rt.SatAdd(v.length, rt.SatAdd(b, rt.CeilDiv(iIntra, ctx.mi)))
	}
	if a.warmFix != nil && len(a.warmFix) == nv {
		// Warm start from retained per-view fixed points (delta runs only):
		// the caller guarantees each seed lies between the cold start and
		// the new least fixed point, so the iteration converges to exactly
		// the fixed point a cold start would reach (see rta.FixPointBatch).
		for vi := range xs {
			if w := a.warmFix[vi]; w > xs[vi] {
				xs[vi] = w
			}
		}
	}
	// Lemma 3 epsilon terms (constant in r; computed via Lemma 2's W).
	for pi := range ctx.procs {
		pc := &ctx.procs[pi]
		for vi := range views {
			eps[vi*np+pi] = a.epsilon(ctx, pc, &views[vi], eps[vi*np+pi])
		}
	}

	fixStart := s.stageStart()
	//schedlint:ignore hotpath closure captures only locals that never escape FixPointBatch; the alloc-gate benchmarks hold it to 0 allocs/op
	ok := rta.FixPointBatch(xs, t.Deadline, done, func(vi int, r rt.Time) rt.Time {
		v := &views[vi]
		ve := eps[vi*np : (vi+1)*np]
		kern := &ctx.kern
		fused := kern.fill(r)
		// Lemma 3: B_i <= sum_k min(eps_k, zeta_k(r)). A processor the view
		// sends no request to has eps_k = 0 and adds nothing.
		var blocking rt.Time
		for i := range ctx.procs {
			if ve[i] != 0 {
				blocking = rt.SatAdd(blocking, min(ve[i], kern.sum(ctx.procs[i].other, r, fused)))
			}
		}
		// Lemma 6: I_A.
		ia := rt.SatAdd(kern.sum(ctx.cluster, r, fused), iaStatics[vi])
		sum := rt.SatAdd(v.length, blocking)
		sum = rt.SatAdd(sum, bs[vi])
		return rt.SatAdd(sum, rt.CeilDiv(rt.SatAdd(iIntras[vi], ia), ctx.mi))
	})
	s.stageEnd(StageFixPoint, fixStart)
	if !ok {
		// One diverged view dooms the task either way; per-view results are
		// irrelevant past this point, exactly like the early exit of the
		// sequential loop.
		return rt.Infinity
	}
	if a.cap != nil {
		//schedlint:ignore hotpath delta-state capture copies per-view results only under the delta analyzer; cap is nil on the zero-alloc production path
		a.cap.record(t.ID, xs, ctx.epsMemo)
	}
	var worst rt.Time
	for _, r := range xs {
		if r > worst {
			worst = r
		}
	}
	return worst
}

// pathWCRT evaluates Theorem 1 for one path view:
//
//	r <= L(lambda) + B_i + b_i + (I_intra + I_A) / m_i
//
// as the least fixed point over r (B and I_A depend on r through eta).
// The production path (taskWCRT) batches this computation across views;
// pathWCRT remains the single-view evaluator behind Explain and the
// per-path reference implementation of the equivalence suite.
func (a *DPCPp) pathWCRT(ctx *taskCtx, v *pathView) rt.Time {
	t := ctx.task
	co := ctx.coScratch
	offCoWork(ctx, v, co)

	// Lemma 4: intra-task blocking (constant in r).
	b := a.intraBlocking(ctx, v, co)

	// Lemma 5: intra-task interference (constant in r).
	iIntra := v.offNonCrit
	for j, q := range ctx.localRes {
		iIntra = rt.SatAdd(iIntra, rt.SatMul(v.offPath[q], ctx.localCS[j]))
	}

	// Lemma 3 epsilon terms (constant in r; computed via Lemma 2's W).
	eps := ctx.epsScratch
	for i := range ctx.procs {
		eps[i] = a.epsilon(ctx, &ctx.procs[i], v, co[i])
	}

	// Static off-path agent work on the own cluster (Lemma 6, Eq. 9).
	var iaStatic rt.Time
	for j, q := range ctx.clusterRes {
		iaStatic = rt.SatAdd(iaStatic, rt.SatMul(v.offPath[q], ctx.clusterCS[j]))
	}

	recurrence := func(r rt.Time) rt.Time {
		// Lemma 3: B_i <= sum_k min(eps_k, zeta_k(r)).
		var blocking rt.Time
		for i := range ctx.procs {
			zeta := etaSum(ctx.procs[i].other, r)
			if eps[i] < zeta {
				blocking = rt.SatAdd(blocking, eps[i])
			} else {
				blocking = rt.SatAdd(blocking, zeta)
			}
		}
		// Lemma 6: I_A.
		ia := rt.SatAdd(etaSum(ctx.cluster, r), iaStatic)
		sum := rt.SatAdd(v.length, blocking)
		sum = rt.SatAdd(sum, b)
		return rt.SatAdd(sum, rt.CeilDiv(rt.SatAdd(iIntra, ia), ctx.mi))
	}

	x0 := rt.SatAdd(v.length, rt.SatAdd(b, rt.CeilDiv(iIntra, ctx.mi)))
	r, ok := rta.FixPoint(x0, t.Deadline, recurrence)
	if !ok {
		return rt.Infinity
	}
	return r
}

// offCoWork fills co[i] with the view's off-path intra-task CS work on the
// resources of processor ctx.procs[i]: Eq. (7)'s summand for a processor
// the path requests from, and the middle term of Lemma 2's base (Eq. 3).
func offCoWork(ctx *taskCtx, v *pathView, co []rt.Time) {
	for i := range ctx.procs {
		pc := &ctx.procs[i]
		var w rt.Time
		for j, u := range pc.res {
			w = rt.SatAdd(w, rt.SatMul(v.offPath[u], pc.resCS[j]))
		}
		co[i] = w
	}
}

// intraBlocking evaluates Lemma 4, given the view's offCoWork.
func (a *DPCPp) intraBlocking(ctx *taskCtx, v *pathView, co []rt.Time) rt.Time {
	var b rt.Time
	// Eq. (6): local resources the path itself requests.
	for j, q := range ctx.localRes {
		if v.onPath[q] > 0 {
			b = rt.SatAdd(b, rt.SatMul(v.offPath[q], ctx.localCS[j]))
		}
	}
	// Eq. (7): global resources on processors the path requests from.
	for i := range ctx.procs {
		pc := &ctx.procs[i]
		sigma := false
		for _, u := range pc.res {
			if v.onPath[u] > 0 {
				sigma = true
				break
			}
		}
		if sigma {
			b = rt.SatAdd(b, co[i])
		}
	}
	return b
}

// epsilon evaluates Eq. (4) for one processor: the per-request blocking
// bound (beta + gamma(W)) scaled by the number of requests the path issues
// to each resource on the processor. W is the Lemma 2 request response
// time. When a W recurrence diverges beyond the deadline, epsilon becomes
// Infinity and Lemma 3's min() falls back to the zeta bound, which remains
// sound.
//
// The W fixed point depends on the view only through its base value, so
// results are memoized in ctx.epsMemo keyed by (processor, base) and shared
// across the per-view loop; rt.Infinity records divergence. offCo is the
// view's offCoWork on this processor, shared by every W on it.
func (a *DPCPp) epsilon(ctx *taskCtx, pc *procCtx, v *pathView, offCo rt.Time) rt.Time {
	t := ctx.task

	var eps rt.Time
	for j, q := range pc.res {
		n := v.onPath[q]
		if n == 0 {
			continue
		}
		base := rt.SatAdd(pc.resCS[j], rt.SatAdd(offCo, pc.beta))
		key := epsKey{proc: pc.proc, base: base}
		perReq, hit := ctx.epsMemo.get(key)
		if !hit {
			//schedlint:ignore hotpath closure captures only locals that never escape FixPoint; the alloc-gate benchmarks hold it to 0 allocs/op
			w, ok := rta.FixPoint(base, t.Deadline, func(w rt.Time) rt.Time {
				return rt.SatAdd(base, etaSum(pc.hp, w))
			})
			if ok {
				perReq = rt.SatAdd(pc.beta, etaSum(pc.hp, w))
			} else {
				perReq = rt.Infinity
			}
			ctx.epsMemo.put(key, perReq)
		}
		if perReq >= rt.Infinity {
			return rt.Infinity
		}
		eps = rt.SatAdd(eps, rt.SatMul(n, perReq))
	}
	return eps
}
