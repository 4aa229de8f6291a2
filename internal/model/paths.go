package model

import (
	"math"

	"dpcpp/internal/rt"
)

// Path is one complete path lambda_i through a task's DAG: a head-to-tail
// sequence of vertices, together with the derived quantities the response
// time analysis consumes.
type Path struct {
	Vertices []rt.VertexID
	Length   rt.Time // L(lambda), sum of vertex WCETs on the path
	NonCrit  rt.Time // C'(lambda), sum of non-critical WCETs on the path
	NReq     []int64 // NReq[q] = N^lambda_{i,q}, requests issued on the path
	onPath   []bool
}

// Contains reports whether vertex x lies on the path.
//
//schedlint:ignore unused per-path EP reference: the epequiv suite checks the view-collapsed analysis against it
func (p *Path) Contains(x rt.VertexID) bool { return p.onPath[x] }

// Requests returns N^lambda_{i,q} for resource q.
//
//schedlint:ignore unused per-path EP reference: the epequiv suite checks the view-collapsed analysis against it
func (p *Path) Requests(q rt.ResourceID) int64 {
	if int(q) >= len(p.NReq) {
		return 0
	}
	return p.NReq[q]
}

// CountPaths returns the number of complete paths in the DAG, saturating at
// math.MaxInt64. It runs in O(V+E) by dynamic programming over the
// topological order.
func (t *Task) CountPaths() int64 {
	t.mustFinal()
	//schedlint:ignore hotpath cap pre-check runs once per task; the analyzer caches the resulting views
	count := make([]int64, len(t.Vertices))
	total := int64(0)
	// Iterate in reverse topological order: count[x] = paths from x to a tail.
	for i := len(t.topo) - 1; i >= 0; i-- {
		x := t.topo[i]
		succ := t.succOf(x)
		if len(succ) == 0 {
			count[x] = 1
			continue
		}
		var c int64
		for _, y := range succ {
			c = satAddI64(c, count[y])
		}
		count[x] = c
	}
	for _, h := range t.heads {
		total = satAddI64(total, count[h])
	}
	return total
}

func satAddI64(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// EnumeratePaths yields every complete path of the DAG, up to the given cap.
// It returns the collected paths and ok=false when the cap was exceeded (in
// which case the returned slice is nil and callers should fall back to the
// path-oblivious EN bounds). A cap <= 0 means unlimited.
//
// The response-time analysis no longer consumes concrete paths; it uses the
// signature-collapsed views of EnumerateViews. EnumeratePaths remains the
// reference enumeration for tests and diagnostic tooling.
//
//schedlint:ignore unused per-path EP reference: the epequiv suite checks the view-collapsed analysis against it
func (t *Task) EnumeratePaths(cap int) (paths []*Path, ok bool) {
	t.mustFinal()
	if cap > 0 && t.CountPaths() > int64(cap) {
		return nil, false
	}
	nr := len(t.nReq)
	t.visitPaths(func(stack []rt.VertexID) {
		paths = append(paths, t.makePath(stack, nr))
	})
	return paths, true
}

// visitPaths walks every complete head-to-tail path with an explicit frame
// stack (no recursion, so arbitrarily deep chain DAGs cannot grow the
// goroutine stack). The vertex slice passed to visit is reused between
// calls; callers must copy it if they retain it.
func (t *Task) visitPaths(visit func(vertices []rt.VertexID)) {
	type frame struct {
		x    rt.VertexID
		next int // index of the next successor to descend into
	}
	frames := make([]frame, 0, len(t.Vertices))
	stack := make([]rt.VertexID, 0, len(t.Vertices))
	for _, h := range t.heads {
		frames = append(frames[:0], frame{x: h})
		stack = append(stack[:0], h)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			succ := t.succOf(f.x)
			if len(succ) == 0 {
				visit(stack)
			}
			if f.next < len(succ) {
				y := succ[f.next]
				f.next++
				frames = append(frames, frame{x: y})
				stack = append(stack, y)
				continue
			}
			frames = frames[:len(frames)-1]
			stack = stack[:len(stack)-1]
		}
	}
}

func (t *Task) makePath(vertices []rt.VertexID, nr int) *Path {
	p := &Path{
		Vertices: append([]rt.VertexID(nil), vertices...),
		NReq:     make([]int64, nr),
		onPath:   make([]bool, len(t.Vertices)),
	}
	for _, x := range vertices {
		v := t.Vertices[x]
		p.Length += v.WCET
		p.NonCrit += t.VertexNonCrit(x)
		p.onPath[x] = true
		for q, n := range v.Requests {
			p.NReq[q] += int64(n)
		}
	}
	return p
}

// PathBounds holds, for one task, the extreme values over all complete
// paths of every path-dependent quantity used by the EN analysis. The EN
// analysis treats the worst-case path as unknown and substitutes, per term,
// the extreme in the pessimistic direction — a sound relaxation of
// enumerating the per-resource request counts as in the paper's
// DPCP-p-EN baseline.
type PathBounds struct {
	MaxLength  rt.Time // L*_i
	MinLength  rt.Time // min over paths of L(lambda)
	MinNonCrit rt.Time // min over paths of C'(lambda)
	MinReq     []int64 // per resource: min over paths of N^lambda_{i,q}
	MaxReq     []int64 // per resource: max over paths of N^lambda_{i,q}
}

// ComputePathBounds returns the task's PathBounds. They are computed on
// first use, in one reverse-topological pass that fills every bound at
// once (O((V+E) * nr) without enumerating paths), and memoized for the
// task's lifetime: SPIN, LPP and the EN view all consume the same bounds,
// and concurrent first calls compute them once. Callers must treat the
// result as read-only.
func (t *Task) ComputePathBounds() *PathBounds {
	t.mustFinal()
	t.boundsOnce.Do(t.fillPathBounds)
	return t.bounds
}

func (t *Task) fillPathBounds() { t.bounds = t.computePathBounds() }

// computePathBounds runs the fused dynamic program. Every vertex x gets a
// row of extremes over the paths from x to a tail: the minimum
// non-critical WCET, the minimum length, then per requested resource the
// minimum and the maximum request count. A row is its successors'
// element-wise extremes plus the vertex's own weights, so one pass in
// reverse topological order fills every row.
func (t *Task) computePathBounds() *PathBounds {
	nr := len(t.nReq)
	//schedlint:ignore hotpath path bounds are computed once per finalized task and memoized behind boundsOnce
	reqs := make([]int64, 2*nr)
	b := &PathBounds{
		MaxLength: t.longestPath,
		MinReq:    reqs[:nr:nr],
		MaxReq:    reqs[nr:],
	}

	// col[q] is resource q's column among the requested resources, or -1
	// when the task never requests q (both of its bounds stay 0).
	//schedlint:ignore hotpath path bounds are computed once per finalized task and memoized behind boundsOnce
	col := make([]int, nr)
	nu := 0
	for q, n := range t.nReq {
		col[q] = -1
		if n != 0 {
			col[q] = nu
			nu++
		}
	}
	const minNonCrit, minLength, minReq = 0, 1, 2
	maxReq := minReq + nu // columns before maxReq are minima, the rest maxima
	width := maxReq + nu
	//schedlint:ignore hotpath path bounds are computed once per finalized task and memoized behind boundsOnce
	rows := make([]int64, len(t.Vertices)*width)

	for i := len(t.topo) - 1; i >= 0; i-- {
		x := int(t.topo[i])
		r := rows[x*width : (x+1)*width]
		if succ := t.succOf(rt.VertexID(x)); len(succ) > 0 {
			y := int(succ[0])
			copy(r, rows[y*width:(y+1)*width])
			for _, y := range succ[1:] {
				foldExtremes(r, rows[int(y)*width:(int(y)+1)*width], maxReq)
			}
		}
		v := t.Vertices[x]
		nonCrit := v.WCET // C'_{i,x}, as VertexNonCrit computes it
		for q, n := range v.Requests {
			nonCrit -= rt.SatMul(int64(n), t.CS(q))
			if j := col[q]; j >= 0 {
				r[minReq+j] += int64(n)
				r[maxReq+j] += int64(n)
			}
		}
		r[minNonCrit] += nonCrit
		r[minLength] += v.WCET
	}

	// Fold the heads into the first head's row (no vertex reads a head's
	// row after the pass).
	h0 := int(t.heads[0])
	best := rows[h0*width : (h0+1)*width]
	for _, h := range t.heads[1:] {
		foldExtremes(best, rows[int(h)*width:(int(h)+1)*width], maxReq)
	}
	b.MinNonCrit = best[minNonCrit]
	b.MinLength = best[minLength]
	for q, j := range col {
		if j >= 0 {
			b.MinReq[q] = best[minReq+j]
			b.MaxReq[q] = best[maxReq+j]
		}
	}
	return b
}

// foldExtremes folds row src into dst: element-wise min over the columns
// before split, element-wise max from split on.
func foldExtremes(dst, src []int64, split int) {
	for c := 0; c < split; c++ {
		if src[c] < dst[c] {
			dst[c] = src[c]
		}
	}
	for c := split; c < len(dst); c++ {
		if src[c] > dst[c] {
			dst[c] = src[c]
		}
	}
}
