package analysis

import (
	"testing"

	"dpcpp/internal/rt"
	"dpcpp/internal/rta"
)

// clampTo maps x into [lo, hi], keeping in-range values as they are so
// seeds at the domain edges reach the kernel unchanged.
func clampTo(x, lo, hi int64) int64 {
	if x >= lo && x <= hi {
		return x
	}
	span := uint64(hi-lo) + 1
	return lo + int64(uint64(x)%span)
}

// kernelLists builds the term lists of a three-task kernel the way buildCtx
// does: a zeta list naming every task, a second zeta list naming two of
// them with other work, and a light-task list. Tasks sit at positions
// 2, 0 and 1 of a four-slot eta vector, so a kernel mixing up positions
// and list indices fails.
func kernelLists(periods, resps, works [3]int64) [][]etaTerm {
	pos := [3]int{2, 0, 1}
	term := func(j int, work int64) etaTerm {
		return etaTerm{period: periods[j], resp: resps[j], work: work, pos: pos[j]}
	}
	return [][]etaTerm{
		{term(0, works[0]), term(1, works[1]), term(2, works[2])},
		{term(2, works[2]/3), term(0, works[0]/7)},
		{term(1, works[1])},
	}
}

func buildKernel(deadline int64, lists [][]etaTerm) *etaKernel {
	k := &etaKernel{}
	k.reset(make([]int64, 4), make([]etaSrc, 4), deadline)
	for _, l := range lists {
		for _, e := range l {
			k.add(e)
		}
	}
	k.seal()
	for _, l := range lists {
		k.admit(l)
	}
	return k
}

// FuzzEtaKernel is the differential oracle of the fused Theorem 1 step:
// the reciprocal eta must equal rta.Eta wherever it is used, and every
// fused sum must equal the saturating etaSum whenever fill accepts the
// window.
func FuzzEtaKernel(f *testing.F) {
	const (
		ms   = int64(rt.Millisecond)
		us   = int64(rt.Microsecond)
		inf  = int64(rt.Infinity)
		e32  = int64(1) << 32
		e31  = int64(1) << 31
		big  = inf / 3
		work = 40 * us
	)
	// r, deadline, then (period, resp, work) per task.
	f.Add(int64(3*ms), int64(10*ms), int64(10*ms), int64(4*ms), work, int64(20*ms), int64(0), work, int64(7*ms), int64(7*ms), work)
	f.Add(int64(0), int64(1), int64(1), int64(0), work, int64(2), int64(0), work, e32-1, int64(0), work)
	f.Add(e31-1, e32, int64(2), int64(0), int64(1), e32-1, int64(0), int64(1), e32, int64(0), int64(1))
	f.Add(e31, e32, int64(2), e31-1, int64(3), int64(3), e31-1, int64(5), e32-1, e31-1, int64(7))
	f.Add(e31-1, e31-1, int64(2), e31, int64(1), int64(2), e31, int64(1), int64(2), e31, int64(1))
	f.Add(e32-1, inf-1, int64(2), int64(0), int64(1), int64(3), int64(0), int64(1), int64(5), int64(0), int64(1))
	f.Add(int64(5*ms), inf-1, int64(10*ms), inf-1, work, int64(10*ms), int64(0), work, int64(10*ms), int64(0), work)
	f.Add(int64(5*ms), int64(10*ms), int64(2), int64(0), big, int64(2), int64(0), big, int64(2), int64(0), inf)
	f.Add(int64(5*ms), int64(10*ms), int64(3), int64(0), inf>>32, int64(3), int64(0), int64(0), int64(3), int64(0), int64(1))
	// Past the fastdiv domain: mulhi(recip(2^32-1), 2^33-3) is one too
	// large, so a kernel accepting windows beyond 2^32 gets this wrong.
	f.Add(2*e32-2, 2*e32, e32-1, int64(0), int64(1), e32-1, int64(0), int64(1), e32-1, int64(0), int64(1))
	f.Add(int64(-1), int64(10*ms), int64(10*ms), int64(0), work, int64(10*ms), int64(0), work, int64(10*ms), int64(0), work)

	f.Fuzz(func(t *testing.T, r, deadline, t0, r0, w0, t1, r1, w1, t2, r2, w2 int64) {
		deadline = clampTo(deadline, 1, inf)
		periods := [3]int64{clampTo(t0, 1, inf), clampTo(t1, 1, inf), clampTo(t2, 1, inf)}
		resps := [3]int64{clampTo(r0, 0, inf), clampTo(r1, 0, inf), clampTo(r2, 0, inf)}
		works := [3]int64{clampTo(w0, 0, inf), clampTo(w1, 0, inf), clampTo(w2, 0, inf)}
		r = clampTo(r, -1, inf)

		for j, T := range periods {
			m := etaRecip(T)
			if m == 0 {
				if T >= 2 && T < e32 {
					t.Fatalf("etaRecip(%d) = 0 inside the fastdiv domain", T)
				}
				continue
			}
			// The reciprocal division itself, over the whole 32-bit range.
			n := uint64(r+resps[j]) % uint64(e32)
			if got, want := ceilDivRecip(n, m), rt.CeilDiv(int64(n), T); got != want {
				t.Fatalf("ceilDivRecip(%d, recip(%d)) = %d, want %d", n, T, got, want)
			}
			if r >= 0 && r+resps[j] < e32 {
				if got, want := ceilDivRecip(uint64(r+resps[j]), m), rta.Eta(r, resps[j], T); got != want {
					t.Fatalf("eta(r=%d, R=%d, T=%d) = %d, rta.Eta = %d", r, resps[j], T, got, want)
				}
			}
		}

		lists := kernelLists(periods, resps, works)
		k := buildKernel(deadline, lists)
		if k.limit > deadline {
			t.Fatalf("kernel limit %d exceeds the deadline %d", k.limit, deadline)
		}
		fused := k.fill(r)
		if fused && (r < 0 || r > deadline) {
			t.Fatalf("fill accepted window %d outside [0, %d]", r, deadline)
		}
		for li, l := range lists {
			if got, want := k.sum(l, r, fused), etaSum(l, r); got != want {
				t.Fatalf("list %d at r=%d (fused=%v, limit=%d): kernel sum %d, etaSum %d",
					li, r, fused, k.limit, got, want)
			}
		}
	})
}

// TestEtaKernelDomain pins where the kernel engages, so FuzzEtaKernel's
// equality checks are not vacuously met by a kernel that always declines.
func TestEtaKernelDomain(t *testing.T) {
	const (
		ms   = rt.Millisecond
		work = 40 * rt.Microsecond
	)
	fig2 := [3]int64{10 * ms, 20 * ms, 7 * ms}
	for _, tc := range []struct {
		name     string
		deadline rt.Time
		periods  [3]int64
		resps    [3]int64
		works    [3]int64
		r        rt.Time
		fused    bool
	}{
		{"paper parameters", 10 * ms, fig2, [3]int64{4 * ms, 0, 7 * ms}, [3]int64{work, work, work}, 3 * ms, true},
		{"window past the deadline", 10 * ms, fig2, [3]int64{}, [3]int64{work, work, work}, 10*ms + 1, false},
		{"negative window", 10 * ms, fig2, [3]int64{}, [3]int64{work, work, work}, -1, false},
		{"period 1", 10 * ms, [3]int64{1, 20 * ms, 7 * ms}, [3]int64{}, [3]int64{work, work, work}, 3 * ms, false},
		{"period 2^32", 10 * ms, [3]int64{1 << 32, 20 * ms, 7 * ms}, [3]int64{}, [3]int64{work, work, work}, 3 * ms, false},
		{"period 2^32-1", 10 * ms, [3]int64{1<<32 - 1, 20 * ms, 7 * ms}, [3]int64{}, [3]int64{work, work, work}, 3 * ms, true},
		{"response bound at 2^32-1", 10 * ms, fig2, [3]int64{1<<32 - 1, 0, 0}, [3]int64{work, work, work}, 0, true},
		{"response bound at 2^32", 10 * ms, fig2, [3]int64{1 << 32, 0, 0}, [3]int64{work, work, work}, 0, false},
		{"huge deadline, window in range", rt.Infinity - 1, fig2, [3]int64{}, [3]int64{work, work, work}, 1<<32 - 1, true},
		{"huge deadline, window at 2^32", rt.Infinity - 1, fig2, [3]int64{}, [3]int64{work, work, work}, 1 << 32, false},
		{"saturating work", 10 * ms, fig2, [3]int64{}, [3]int64{rt.Infinity, work, work}, 3 * ms, false},
	} {
		lists := kernelLists(tc.periods, tc.resps, tc.works)
		k := buildKernel(tc.deadline, lists)
		if got := k.fill(tc.r); got != tc.fused {
			t.Errorf("%s: fill(%d) = %v, want %v (limit %d)", tc.name, tc.r, got, tc.fused, k.limit)
		}
	}
}
