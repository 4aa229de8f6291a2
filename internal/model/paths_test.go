package model

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"dpcpp/internal/rt"
)

func TestEnumeratePathsGi(t *testing.T) {
	task := paperTaskGi(t)
	if got := task.CountPaths(); got != 4 {
		t.Fatalf("CountPaths = %d, want 4", got)
	}
	paths, ok := task.EnumeratePaths(0)
	if !ok || len(paths) != 4 {
		t.Fatalf("EnumeratePaths: ok=%v len=%d, want 4 paths", ok, len(paths))
	}
	// The longest must be (v1, v5, v7, v8) with L = 10us.
	var best *Path
	for _, p := range paths {
		if best == nil || p.Length > best.Length {
			best = p
		}
	}
	if best.Length != 10*rt.Microsecond {
		t.Errorf("longest enumerated path = %v, want 10us", best.Length)
	}
	want := []rt.VertexID{0, 4, 6, 7}
	for i, x := range best.Vertices {
		if x != want[i] {
			t.Errorf("longest path vertices = %v, want %v", best.Vertices, want)
			break
		}
	}
}

func TestPathRequestVectors(t *testing.T) {
	task := paperTaskGi(t)
	paths, _ := task.EnumeratePaths(0)
	// Path through v2 carries the single l1 request; paths through v3 or v4
	// carry one l2 request each; the path through v5 carries none.
	counts := map[string]int{}
	for _, p := range paths {
		switch {
		case p.Requests(0) == 1 && p.Requests(1) == 0:
			counts["l1"]++
		case p.Requests(0) == 0 && p.Requests(1) == 1:
			counts["l2"]++
		case p.Requests(0) == 0 && p.Requests(1) == 0:
			counts["none"]++
		default:
			t.Errorf("unexpected request vector on path %v: l1=%d l2=%d",
				p.Vertices, p.Requests(0), p.Requests(1))
		}
	}
	if counts["l1"] != 1 || counts["l2"] != 2 || counts["none"] != 1 {
		t.Errorf("path request distribution = %v, want l1:1 l2:2 none:1", counts)
	}
}

func TestPathContains(t *testing.T) {
	task := paperTaskGi(t)
	paths, _ := task.EnumeratePaths(0)
	for _, p := range paths {
		seen := map[rt.VertexID]bool{}
		for _, x := range p.Vertices {
			seen[x] = true
		}
		for x := range task.Vertices {
			if p.Contains(rt.VertexID(x)) != seen[rt.VertexID(x)] {
				t.Errorf("Contains(%d) inconsistent on path %v", x, p.Vertices)
			}
		}
	}
}

func TestEnumeratePathsCap(t *testing.T) {
	task := paperTaskGi(t)
	if _, ok := task.EnumeratePaths(3); ok {
		t.Error("EnumeratePaths(cap=3) succeeded on a 4-path DAG, want cap exceeded")
	}
	if paths, ok := task.EnumeratePaths(4); !ok || len(paths) != 4 {
		t.Errorf("EnumeratePaths(cap=4): ok=%v len=%d, want 4", ok, len(paths))
	}
}

func TestComputePathBoundsGi(t *testing.T) {
	task := paperTaskGi(t)
	b := task.ComputePathBounds()
	if b.MaxLength != 10*rt.Microsecond {
		t.Errorf("MaxLength = %v, want 10us", b.MaxLength)
	}
	if b.MinReq[0] != 0 || b.MaxReq[0] != 1 {
		t.Errorf("l1 request bounds = [%d,%d], want [0,1]", b.MinReq[0], b.MaxReq[0])
	}
	if b.MinReq[1] != 0 || b.MaxReq[1] != 1 {
		t.Errorf("l2 request bounds = [%d,%d], want [0,1]", b.MinReq[1], b.MaxReq[1])
	}
}

// randomDAGTask builds a random DAG task for property tests: edges only go
// from lower to higher vertex index, so it is always acyclic.
func randomDAGTask(r *rand.Rand, nVerts, nRes int) *Task {
	task := NewTask(0, rt.Second, rt.Second)
	for i := 0; i < nVerts; i++ {
		task.AddVertex(rt.Time(1+r.Intn(20)) * rt.Microsecond)
	}
	for i := 0; i < nVerts; i++ {
		for j := i + 1; j < nVerts; j++ {
			if r.Float64() < 0.2 {
				task.AddEdge(rt.VertexID(i), rt.VertexID(j))
			}
		}
	}
	for q := 0; q < nRes; q++ {
		x := rt.VertexID(r.Intn(nVerts))
		if task.Vertices[x].WCET >= 2*rt.Microsecond {
			task.AddRequest(x, rt.ResourceID(q), 1, rt.Microsecond)
		}
	}
	if err := task.Finalize(nRes); err != nil {
		panic(err)
	}
	return task
}

// Property: for every enumerated path, length and request counts stay within
// the DP bounds, and the maximum enumerated length equals L*.
func TestPathBoundsDominateEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		task := randomDAGTask(r, 2+r.Intn(9), 2)
		b := task.ComputePathBounds()
		paths, ok := task.EnumeratePaths(100000)
		if !ok {
			return true // cap exceeded: nothing to check
		}
		var maxLen rt.Time
		for _, p := range paths {
			if p.Length > b.MaxLength {
				return false
			}
			if p.Length > maxLen {
				maxLen = p.Length
			}
			if p.NonCrit < b.MinNonCrit {
				return false
			}
			for q := 0; q < 2; q++ {
				n := p.Requests(rt.ResourceID(q))
				if n < b.MinReq[q] || n > b.MaxReq[q] {
					return false
				}
			}
		}
		return maxLen == b.MaxLength
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the DP bounds are tight, i.e. attained by some enumerated path.
func TestPathBoundsTight(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		task := randomDAGTask(r, 2+r.Intn(8), 2)
		b := task.ComputePathBounds()
		paths, ok := task.EnumeratePaths(100000)
		if !ok {
			return true
		}
		for q := 0; q < 2; q++ {
			minSeen, maxSeen := int64(1<<62), int64(-1)
			for _, p := range paths {
				n := p.Requests(rt.ResourceID(q))
				if n < minSeen {
					minSeen = n
				}
				if n > maxSeen {
					maxSeen = n
				}
			}
			if minSeen != b.MinReq[q] || maxSeen != b.MaxReq[q] {
				return false
			}
		}
		minNC := rt.Infinity
		for _, p := range paths {
			if p.NonCrit < minNC {
				minNC = p.NonCrit
			}
		}
		return minNC == b.MinNonCrit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: CountPaths agrees with enumeration.
func TestCountPathsMatchesEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		task := randomDAGTask(r, 2+r.Intn(8), 1)
		paths, ok := task.EnumeratePaths(100000)
		if !ok {
			return true
		}
		return task.CountPaths() == int64(len(paths))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: every enumerated path is a valid head-to-tail chain of edges.
func TestEnumeratedPathsAreValidChains(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		task := randomDAGTask(r, 2+r.Intn(8), 1)
		paths, ok := task.EnumeratePaths(100000)
		if !ok {
			return true
		}
		isEdge := map[[2]rt.VertexID]bool{}
		for _, e := range task.Edges {
			isEdge[[2]rt.VertexID{e.From, e.To}] = true
		}
		for _, p := range paths {
			if len(task.Pred(p.Vertices[0])) != 0 {
				return false
			}
			if len(task.Succ(p.Vertices[len(p.Vertices)-1])) != 0 {
				return false
			}
			for i := 0; i+1 < len(p.Vertices); i++ {
				if !isEdge[[2]rt.VertexID{p.Vertices[i], p.Vertices[i+1]}] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDiamondPathCount(t *testing.T) {
	// k independent diamonds in sequence gives 2^k paths.
	task := NewTask(0, rt.Second, rt.Second)
	prev := task.AddVertex(rt.Microsecond)
	k := 10
	for i := 0; i < k; i++ {
		a := task.AddVertex(rt.Microsecond)
		b := task.AddVertex(rt.Microsecond)
		join := task.AddVertex(rt.Microsecond)
		task.AddEdge(prev, a)
		task.AddEdge(prev, b)
		task.AddEdge(a, join)
		task.AddEdge(b, join)
		prev = join
	}
	if err := task.Finalize(0); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if got, want := task.CountPaths(), int64(1<<k); got != want {
		t.Errorf("CountPaths = %d, want %d", got, want)
	}
}

// refPathBounds is the per-quantity dynamic program the fused pass
// replaced: one reverse-topological pass per bound, each with its own
// weight function.
func refPathBounds(t *Task) *PathBounds {
	opt := func(w func(rt.VertexID) int64, better func(a, b int64) bool) int64 {
		best := make([]int64, len(t.Vertices))
		for i := len(t.topo) - 1; i >= 0; i-- {
			x := t.topo[i]
			var o int64
			for k, y := range t.succOf(x) {
				if k == 0 || better(best[y], o) {
					o = best[y]
				}
			}
			best[x] = w(x) + o
		}
		var o int64
		for k, h := range t.heads {
			if k == 0 || better(best[h], o) {
				o = best[h]
			}
		}
		return o
	}
	less := func(a, b int64) bool { return a < b }
	more := func(a, b int64) bool { return a > b }
	nr := len(t.nReq)
	b := &PathBounds{MaxLength: t.longestPath, MinReq: make([]int64, nr), MaxReq: make([]int64, nr)}
	b.MinNonCrit = opt(t.VertexNonCrit, less)
	b.MinLength = opt(func(x rt.VertexID) int64 { return t.Vertices[x].WCET }, less)
	for q := 0; q < nr; q++ {
		if t.nReq[q] == 0 {
			continue
		}
		w := func(x rt.VertexID) int64 { return int64(t.Vertices[x].Requests[rt.ResourceID(q)]) }
		b.MinReq[q], b.MaxReq[q] = opt(w, less), opt(w, more)
	}
	return b
}

func pathBoundsEqual(a, b *PathBounds) bool {
	if a.MaxLength != b.MaxLength || a.MinLength != b.MinLength ||
		a.MinNonCrit != b.MinNonCrit || len(a.MinReq) != len(b.MinReq) || len(a.MaxReq) != len(b.MaxReq) {
		return false
	}
	for q := range a.MinReq {
		if a.MinReq[q] != b.MinReq[q] || a.MaxReq[q] != b.MaxReq[q] {
			return false
		}
	}
	return true
}

// richDAGTask is randomDAGTask with several requests per vertex, per-
// resource CS lengths and resources the task never touches, so every
// column of the fused pass is exercised.
func richDAGTask(r *rand.Rand, nVerts, nRes int) *Task {
	task := NewTask(0, rt.Second, rt.Second)
	for i := 0; i < nVerts; i++ {
		task.AddVertex(rt.Time(50+r.Intn(200)) * rt.Microsecond)
	}
	for i := 0; i < nVerts; i++ {
		for j := i + 1; j < nVerts; j++ {
			if r.Float64() < 0.3 {
				task.AddEdge(rt.VertexID(i), rt.VertexID(j))
			}
		}
	}
	for q := 0; q < nRes; q++ {
		if r.Intn(4) == 0 {
			continue // unused resource
		}
		cs := rt.Time(1+r.Intn(5)) * rt.Microsecond
		for x := 0; x < nVerts; x++ {
			if r.Intn(3) == 0 {
				task.AddRequest(rt.VertexID(x), rt.ResourceID(q), 1+r.Intn(4), cs)
			}
		}
	}
	if err := task.Finalize(nRes); err != nil {
		panic(err)
	}
	return task
}

func TestPathBoundsMatchPerQuantityDP(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		task := richDAGTask(r, 1+r.Intn(30), r.Intn(6))
		got, want := task.ComputePathBounds(), refPathBounds(task)
		if !pathBoundsEqual(got, want) {
			t.Fatalf("trial %d: fused bounds %+v, per-quantity DP %+v", trial, got, want)
		}
		if again := task.ComputePathBounds(); again != got {
			t.Fatalf("trial %d: second call recomputed the bounds", trial)
		}
	}
}

// TestPathBoundsConcurrentFirstUse mirrors the server running the five
// analyses of one taskset concurrently: every goroutine must see the one
// memoized result (run under -race in CI).
func TestPathBoundsConcurrentFirstUse(t *testing.T) {
	task := richDAGTask(rand.New(rand.NewSource(12)), 25, 4)
	const n = 5
	got := make([]*PathBounds, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = task.ComputePathBounds()
		}()
	}
	wg.Wait()
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("goroutine %d got a different bounds instance", i)
		}
	}
	if !pathBoundsEqual(got[0], refPathBounds(task)) {
		t.Fatalf("concurrent bounds %+v, per-quantity DP %+v", got[0], refPathBounds(task))
	}
}
