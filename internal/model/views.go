package model

import (
	"dpcpp/internal/rt"
)

// PathView is the signature-collapsed summary of every complete path that
// shares one per-resource request vector ("signature"). The DPCP-p per-path
// response-time bound of Theorem 1 depends on a path only through its
// request vector, its length L(lambda) and its on-path non-critical WCET,
// and it is monotone non-decreasing in the latter two for a fixed request
// vector (L and C' are coupled: L = C'(lambda) + sum_q N^lambda_q * L_q).
// All paths with one signature therefore collapse, exactly, into the single
// view carrying the group maxima.
type PathView struct {
	NReq    []int64 // NReq[q] = N^lambda_{i,q}, shared by all collapsed paths
	Length  rt.Time // max over collapsed paths of L(lambda)
	NonCrit rt.Time // on-path non-critical WCET of the longest collapsed path
	Paths   int64   // number of concrete paths collapsed, saturating
}

// Requests returns N^lambda_{i,q} for resource q.
func (v *PathView) Requests(q rt.ResourceID) int64 {
	if int(q) >= len(v.NReq) {
		return 0
	}
	return v.NReq[q]
}

// viewState is one partial-path equivalence class during the collapse DP:
// all head-to-x prefixes sharing one request-count signature.
type viewState struct {
	sig     []int64 // counts per *active* resource (see EnumerateViews)
	nonCrit rt.Time // max prefix non-critical WCET within the class
	paths   int64   // number of prefixes in the class, saturating
}

// sigDelta is one vertex's request increment on an active-resource slot,
// hoisted out of the DP so the inner loop never touches the Requests maps.
type sigDelta struct {
	slot int
	n    int64
}

// ViewScratch holds the reusable working memory of EnumerateViewsScratch:
// the per-vertex DP state, the signature arena, the merger (including its
// map index and key buffer) and the backing arrays of the returned views.
//
// Ownership: a ViewScratch may be used by one goroutine at a time, and the
// views returned by EnumerateViewsScratch (including their NReq vectors)
// borrow the scratch — they are valid only until the next
// EnumerateViewsScratch call on the same scratch. Callers that retain views
// must copy them out first (internal/analysis does: it converts views into
// its own representation immediately).
type ViewScratch struct {
	active  []rt.ResourceID
	slot    []int
	deltas  [][]sigDelta
	nonCrit []rt.Time
	states  [][]viewState
	final   []viewState
	zeroSig []int64
	replay  []rt.Time // ViewPlan.Replay value slots

	// sigs is the arena backing every signature copied during one call;
	// sigOff is the bump pointer, reset per call. Growth allocates a fresh
	// backing array (chunks already handed out keep the old one alive), so
	// after warm-up a steady-state call performs no signature allocations.
	sigs   []int64
	sigOff int

	merger sigMerger

	views []PathView
	nreq  []int64
}

// allocSig bump-allocates one zero-length-capped signature of length n from
// the arena. The full slice expression prevents a later append from
// clobbering a neighboring chunk.
//
//schedlint:hotpath
func (s *ViewScratch) allocSig(n int) []int64 {
	if s.sigOff+n > len(s.sigs) {
		size := 2 * (s.sigOff + n)
		if size < 64 {
			size = 64
		}
		//schedlint:ignore hotpath amortized signature-arena growth; steady-state calls reuse the existing backing
		s.sigs = make([]int64, size)
		s.sigOff = 0
	}
	c := s.sigs[s.sigOff : s.sigOff+n : s.sigOff+n]
	s.sigOff += n
	return c
}

// sliceCap returns s with length n, reusing the backing array when it is
// large enough. Contents are unspecified; callers fully overwrite.
func sliceCap[T any](s []T, n int) []T {
	if cap(s) < n {
		//schedlint:ignore hotpath grow-only resize; a warmed scratch never re-enters this branch
		return make([]T, n)
	}
	return s[:n]
}

// EnumerateViews streams every complete path of the DAG through a
// signature-collapsing dynamic program and returns one PathView per
// distinct request vector, in deterministic first-discovered order.
//
// Unlike EnumeratePaths, the cost is not proportional to the number of
// paths: partial paths reaching a vertex with identical request counts are
// folded immediately, so a DAG whose 2^k paths all request the same
// resources is processed in O(V+E). The worst case is bounded by the number
// of distinct partial signatures per vertex (itself bounded by the path
// count and by prod_q (N_{i,q}+1)).
//
// The cap keeps the EN-fallback semantics of EnumeratePaths bit-compatible:
// ok=false whenever the task has more than cap complete paths, regardless
// of how few views they would collapse into. A cap <= 0 means unlimited.
func (t *Task) EnumerateViews(cap int) (views []PathView, ok bool) {
	return t.EnumerateViewsScratch(cap, nil)
}

// EnumerateViewsScratch is EnumerateViews computing through a reusable
// scratch. With a nil scratch the returned views own fresh memory exactly
// like EnumerateViews; with a non-nil scratch the views (and their NReq
// backing) borrow it and stay valid only until the next call on the same
// scratch. The fold order, merge order and therefore the returned view
// order are identical either way.
//
//schedlint:hotpath
func (t *Task) EnumerateViewsScratch(cap int, s *ViewScratch) (views []PathView, ok bool) {
	return t.enumerateViews(cap, s, nil)
}

// EnumerateViewsPlan is EnumerateViewsScratch that additionally compiles
// the collapse structure into a heap-owned ViewPlan for later replay under
// changed vertex WCETs. The returned views are identical to (and borrow
// scratch exactly like) EnumerateViewsScratch's.
func (t *Task) EnumerateViewsPlan(cap int, s *ViewScratch) (views []PathView, plan *ViewPlan, ok bool) {
	plan = &ViewPlan{}
	views, ok = t.enumerateViews(cap, s, plan)
	if !ok {
		return nil, nil, false
	}
	return views, plan, true
}

//schedlint:hotpath
func (t *Task) enumerateViews(cap int, s *ViewScratch, rec *ViewPlan) (views []PathView, ok bool) {
	t.mustFinal()
	if cap > 0 && t.CountPaths() > int64(cap) {
		return nil, false
	}
	if s == nil {
		s = &ViewScratch{}
	}

	// Active resources: only resources the task requests at all can appear
	// in a signature, so signatures index them densely.
	s.active = s.active[:0]
	s.slot = sliceCap(s.slot, len(t.nReq))
	for q, n := range t.nReq {
		if n > 0 {
			s.slot[q] = len(s.active)
			s.active = append(s.active, rt.ResourceID(q))
		}
	}
	na := len(s.active)

	// Per-vertex signature increments and non-critical WCETs.
	nv := len(t.Vertices)
	if have := len(s.deltas); have < nv {
		//schedlint:ignore hotpath grow-only resize; a warmed scratch never re-enters this branch
		s.deltas = append(s.deltas[:have], make([][]sigDelta, nv-have)...)
	}
	s.nonCrit = sliceCap(s.nonCrit, nv)
	for x, v := range t.Vertices {
		s.nonCrit[x] = t.VertexNonCrit(rt.VertexID(x))
		d := s.deltas[x][:0]
		for q, n := range v.Requests {
			if n > 0 {
				d = append(d, sigDelta{slot: s.slot[q], n: int64(n)})
			}
		}
		s.deltas[x] = d
	}

	s.zeroSig = sliceCap(s.zeroSig, na)
	clear(s.zeroSig)
	s.sigOff = 0
	m := &s.merger

	// Forward DP in topological order: states[x] holds the collapsed
	// classes of all head-to-x prefixes (x included). The predecessor
	// signature is never mutated and is shared when x issues no requests.
	if have := len(s.states); have < nv {
		//schedlint:ignore hotpath grow-only resize; a warmed scratch never re-enters this branch
		s.states = append(s.states[:have], make([][]viewState, nv-have)...)
	}
	// When recording, every (vertex, class) pair gets a global value slot;
	// slotBase[x] is vertex x's first slot. Recording allocates, but it only
	// runs under the delta analyzer, never on the production path.
	var slotBase []int32
	var nextSlot int32
	if rec != nil {
		//schedlint:ignore hotpath plan recording runs only under the delta analyzer
		slotBase = make([]int32, nv)
	}
	for _, x := range t.topo {
		m.begin(s.states[x][:0])
		var seg *planSeg
		if rec != nil {
			slotBase[x] = nextSlot
			//schedlint:ignore hotpath plan recording runs only under the delta analyzer
			rec.segs = append(rec.segs, planSeg{x: x})
			seg = &rec.segs[len(rec.segs)-1]
		}
		if len(t.predOf(x)) == 0 {
			j := s.fold(m, x, na, s.zeroSig, s.nonCrit[x], 1)
			if seg != nil {
				//schedlint:ignore hotpath plan recording runs only under the delta analyzer
				seg.ops = append(seg.ops, planOp{src: -1, dst: slotBase[x] + int32(j)})
			}
		} else {
			for _, p := range t.predOf(x) {
				for i, st := range s.states[p] {
					j := s.fold(m, x, na, st.sig, st.nonCrit+s.nonCrit[x], st.paths)
					if seg != nil {
						//schedlint:ignore hotpath plan recording runs only under the delta analyzer
						seg.ops = append(seg.ops, planOp{src: slotBase[p] + int32(i), dst: slotBase[x] + int32(j)})
					}
				}
			}
		}
		s.states[x] = m.take()
		if rec != nil {
			nextSlot += int32(len(s.states[x]))
		}
	}

	// Merge the tail classes into the final views. Length is recovered from
	// the signature: L = C'(lambda) + sum over active q of sig_q * L_{i,q}.
	m.begin(s.final[:0])
	var fseg *planSeg
	if rec != nil {
		//schedlint:ignore hotpath plan recording runs only under the delta analyzer
		rec.segs = append(rec.segs, planSeg{x: -1})
		fseg = &rec.segs[len(rec.segs)-1]
	}
	for _, tail := range t.tails {
		for i, st := range s.states[tail] {
			j := m.add(st.sig, st.nonCrit, st.paths)
			if fseg != nil {
				//schedlint:ignore hotpath plan recording runs only under the delta analyzer
				fseg.ops = append(fseg.ops, planOp{src: slotBase[tail] + int32(i), dst: int32(j)})
			}
		}
	}
	s.final = m.take()
	final := s.final

	nr := len(t.nReq)
	views = sliceCap(s.views, len(final))
	s.views = views
	s.nreq = sliceCap(s.nreq, len(final)*nr)
	nreqFlat := s.nreq
	clear(nreqFlat)
	if rec != nil {
		rec.nv = nv
		rec.slots = int(nextSlot)
		rec.nFinal = len(final)
		rec.nr = nr
		//schedlint:ignore hotpath plan recording runs only under the delta analyzer
		rec.nreq = make([]int64, len(final)*nr)
		//schedlint:ignore hotpath plan recording runs only under the delta analyzer
		rec.csPart = make([]rt.Time, len(final))
		//schedlint:ignore hotpath plan recording runs only under the delta analyzer
		rec.paths = make([]int64, len(final))
		// Per-vertex critical-section work is WCET-independent; freezing it
		// lets Replay derive non-critical WCETs without touching the
		// request maps.
		//schedlint:ignore hotpath plan recording runs only under the delta analyzer
		rec.csw = make([]rt.Time, nv)
		for x := range t.Vertices {
			rec.csw[x] = t.Vertices[x].WCET - s.nonCrit[x]
		}
	}
	for i, st := range final {
		nreq := nreqFlat[i*nr : (i+1)*nr : (i+1)*nr]
		length := st.nonCrit
		for j, q := range s.active {
			nreq[q] = st.sig[j]
			length = rt.SatAdd(length, rt.SatMul(st.sig[j], t.CSLen[q]))
		}
		views[i] = PathView{NReq: nreq, Length: length, NonCrit: st.nonCrit, Paths: st.paths}
		if rec != nil {
			copy(rec.nreq[i*nr:(i+1)*nr], nreq)
			var cs rt.Time
			for j, q := range s.active {
				cs = rt.SatAdd(cs, rt.SatMul(st.sig[j], t.CSLen[q]))
			}
			rec.csPart[i] = cs
			rec.paths[i] = st.paths
		}
	}
	return views, true
}

// fold extends one predecessor class by vertex x and hands it to the
// merger, returning the class index the contribution merged into.
// Signatures only copy (from the arena) when x issues requests.
func (s *ViewScratch) fold(m *sigMerger, x rt.VertexID, na int, base []int64, nc rt.Time, paths int64) int {
	sig := base
	if len(s.deltas[x]) > 0 {
		sig = s.allocSig(na)
		copy(sig, base)
		for _, d := range s.deltas[x] {
			sig[d.slot] += d.n
		}
	}
	return m.add(sig, nc, paths)
}

// CountViews returns the number of distinct request-vector signatures over
// complete paths, i.e. len(EnumerateViews) without the cap check.
//
//schedlint:ignore unused perfbench (a separate module the load cannot see) counts views with it
func (t *Task) CountViews() int {
	views, _ := t.EnumerateViews(0)
	return len(views)
}

// sigMerger folds (signature, nonCrit, paths) triples into collapsed
// equivalence classes. Small batches merge by direct signature comparison;
// once the class count passes a threshold it switches to an open-addressed
// hash table probing the signatures in place, so chain-heavy DAGs (few
// classes per vertex) never pay for hashing while contention-heavy DAGs
// stay near O(1) per fold. The table's backing persists across begin
// calls, so a scratch-driven enumeration reuses it allocation-free (a
// string-keyed map here would re-materialize every key string per call:
// map writes always copy the key).
type sigMerger struct {
	out []viewState
	// table is the open-addressed index: table[j] holds 1+the out index of
	// the class hashed to slot j, 0 marks an empty slot. Linear probing;
	// capacity is a power of two kept at least twice the class count.
	table   []int32
	indexed bool // table is live for the current merge
}

// linearMergeMax bounds the direct-comparison phase; beyond it the merger
// builds its table index.
const linearMergeMax = 16

// begin starts a new merge writing into dst (typically a reused slice
// truncated to length zero).
func (m *sigMerger) begin(dst []viewState) {
	m.out = dst
	m.indexed = false
}

// take returns the merged classes and detaches them from the merger.
func (m *sigMerger) take() []viewState {
	out := m.out
	m.out = nil
	m.indexed = false
	return out
}

// hashSig mixes the signature contents; only equality of signatures (not
// any encoding) matters for correctness.
func hashSig(sig []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, n := range sig {
		x := uint64(n)
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		h = (h ^ x) * 0x9e3779b97f4a7c15
	}
	h ^= h >> 29
	return h
}

// find probes for sig and returns the slot holding its class, or the empty
// slot where it belongs.
func (m *sigMerger) find(sig []int64) int {
	mask := len(m.table) - 1
	j := int(hashSig(sig)) & mask
	for {
		e := m.table[j]
		if e == 0 || sigEqual(m.out[e-1].sig, sig) {
			return j
		}
		j = (j + 1) & mask
	}
}

// reindex (re)builds the table over the current classes, growing the
// backing only when the class count outruns the 1/2 load factor.
func (m *sigMerger) reindex() {
	need := 4 * linearMergeMax
	for need < 4*(len(m.out)+1) {
		need *= 2
	}
	if len(m.table) < need {
		//schedlint:ignore hotpath grow-only resize; a warmed merger table never re-enters this branch
		m.table = make([]int32, need)
	} else {
		clear(m.table)
	}
	m.indexed = true
	for i := range m.out {
		m.table[m.find(m.out[i].sig)] = int32(i + 1)
	}
}

// add folds one (signature, nonCrit, paths) triple in and returns the index
// of the class it landed in (classes are only ever appended, so indices are
// stable for the duration of a merge).
func (m *sigMerger) add(sig []int64, nonCrit rt.Time, paths int64) int {
	if !m.indexed {
		for i := range m.out {
			if sigEqual(m.out[i].sig, sig) {
				m.merge(i, nonCrit, paths)
				return i
			}
		}
		if len(m.out) < linearMergeMax {
			m.out = append(m.out, viewState{sig: sig, nonCrit: nonCrit, paths: paths})
			return len(m.out) - 1
		}
		// Crossing the threshold: index everything seen so far.
		m.reindex()
	}
	if 2*(len(m.out)+1) > len(m.table) {
		m.reindex()
	}
	j := m.find(sig)
	if e := m.table[j]; e != 0 {
		m.merge(int(e-1), nonCrit, paths)
		return int(e - 1)
	}
	m.table[j] = int32(len(m.out) + 1)
	m.out = append(m.out, viewState{sig: sig, nonCrit: nonCrit, paths: paths})
	return len(m.out) - 1
}

func (m *sigMerger) merge(i int, nonCrit rt.Time, paths int64) {
	s := &m.out[i]
	if nonCrit > s.nonCrit {
		s.nonCrit = nonCrit
	}
	s.paths = satAddI64(s.paths, paths)
}

func sigEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// planOp is one max-fold of the recorded collapse DP: slot dst accumulates
// slot src's value plus the segment vertex's non-critical WCET. src == -1
// seeds a head-vertex class from the vertex alone; in the final segment
// (planSeg.x == -1) dst indexes the final views and no WCET is added.
type planOp struct{ src, dst int32 }

// planSeg groups the recorded ops of one vertex, in topological order; the
// trailing segment with x == -1 merges tail classes into the final views.
type planSeg struct {
	x   rt.VertexID
	ops []planOp
}

// ViewPlan is the compiled structure of one task's signature-collapsing
// view enumeration. Which class a path prefix folds into — and therefore
// the whole plan — depends only on the DAG, the request vectors and the
// active-resource set, never on vertex WCETs: WCETs enter the DP purely as
// the weights being max-accumulated. Replay therefore re-derives the exact
// EnumerateViews result for a WCET-edited variant of the task (same
// signatures, same view order, same path counts) in one linear pass over
// the recorded ops, skipping all signature hashing and merging.
//
// A plan is immutable after EnumerateViewsPlan returns and safe for
// concurrent Replay calls through distinct scratches. It becomes invalid —
// silently, so callers must gate on the change classification — as soon as
// the task's vertex count, edges, request vectors or critical-section
// lengths change.
type ViewPlan struct {
	nv     int // vertex count the plan was compiled for
	slots  int // number of (vertex, class) value slots
	nFinal int // number of final views
	nr     int
	segs   []planSeg
	nreq   []int64   // nFinal x nr: view i's request vector (static)
	csPart []rt.Time // per view: saturating sum_q NReq_q * L_{i,q} (static)
	paths  []int64   // per view: collapsed concrete paths (static)
	csw    []rt.Time // per vertex: critical-section work (static)
}

// NumViews returns the number of views the plan reproduces.
func (p *ViewPlan) NumViews() int { return p.nFinal }

// Replay recomputes the task's path views under its current vertex WCETs.
// t must be structurally identical to the task the plan was compiled from
// (same DAG, requests and CS lengths); only vertex WCETs may differ. The
// returned views borrow the scratch and the plan exactly like
// EnumerateViewsScratch's views borrow the scratch: valid until the next
// enumeration or replay through s. Returns nil if t's vertex count does not
// match the plan.
func (p *ViewPlan) Replay(t *Task, s *ViewScratch) []PathView {
	t.mustFinal()
	if len(t.Vertices) != p.nv {
		return nil
	}
	if s == nil {
		s = &ViewScratch{}
	}
	vals := sliceCap(s.replay, p.slots+p.nFinal)
	s.replay = vals
	// Non-critical WCETs are non-negative (Finalize rejects critical
	// sections exceeding the vertex WCET), so -1 is a safe "unwritten"
	// floor for the max-accumulation.
	for i := range vals {
		vals[i] = -1
	}
	fin := vals[p.slots:]
	for si := range p.segs {
		seg := &p.segs[si]
		if seg.x < 0 {
			for _, op := range seg.ops {
				if v := vals[op.src]; v > fin[op.dst] {
					fin[op.dst] = v
				}
			}
			continue
		}
		nc := t.Vertices[seg.x].WCET - p.csw[seg.x]
		for _, op := range seg.ops {
			v := nc
			if op.src >= 0 {
				// Plain addition, exactly like the recorded DP's
				// st.nonCrit + s.nonCrit[x] fold.
				v = vals[op.src] + nc
			}
			if v > vals[op.dst] {
				vals[op.dst] = v
			}
		}
	}
	views := sliceCap(s.views, p.nFinal)
	s.views = views
	for i := 0; i < p.nFinal; i++ {
		nonCrit := fin[i]
		views[i] = PathView{
			NReq:    p.nreq[i*p.nr : (i+1)*p.nr : (i+1)*p.nr],
			Length:  rt.SatAdd(nonCrit, p.csPart[i]),
			NonCrit: nonCrit,
			Paths:   p.paths[i],
		}
	}
	return views
}
