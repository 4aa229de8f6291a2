package analysis

import (
	"math/bits"

	"dpcpp/internal/rt"
	"dpcpp/internal/rta"
)

// etaTerm is one task's contribution eta_j(r) * work to an interference sum
// of Theorem 1 (zeta_k of Lemma 3, Lemma 6's I_A, and Lemma 2's gamma).
type etaTerm struct {
	period rt.Time
	resp   rt.Time
	work   rt.Time
	pos    int // position of the task in ts.Tasks (task IDs need not be dense)
}

// etaSum is the saturating reference evaluation of sum_j eta_j(r) * work_j.
// The per-view evaluator (pathWCRT, Explain) and Lemma 2's W recurrence use
// it; the batched Theorem 1 step falls back to it outside the etaKernel's
// exact domain.
func etaSum(terms []etaTerm, window rt.Time) rt.Time {
	var total rt.Time
	for _, e := range terms {
		total = rt.SatAdd(total, rt.SatMul(rta.Eta(window, e.resp, e.period), e.work))
	}
	return total
}

// etaDomain bounds the fastdiv operands: ceilDivRecip is exact for
// dividends and divisors below it.
const etaDomain = 1 << 32

// etaRecip returns the fastdiv reciprocal ceil(2^64 / T) of a period, or 0
// when T lies outside [2, 2^32), where the reciprocal is not exact (T = 1
// does not fit in 64 bits).
func etaRecip(T rt.Time) uint64 {
	if T < 2 || T >= etaDomain {
		return 0
	}
	return ^uint64(0)/uint64(T) + 1
}

// ceilDivRecip returns ceil(n / T) for n < 2^32, given m = etaRecip(T) != 0.
// It uses Lemire, Kaser and Kurz's direct computation ("Faster remainder by
// direct computation", 2019): with m = ceil(2^64 / T) and 2 <= T < 2^32,
// floor(x / T) = mulhi(m, x) for every x < 2^32. For n >= 1,
// ceil(n / T) = floor((n - 1) / T) + 1.
func ceilDivRecip(n, m uint64) int64 {
	if n == 0 {
		return 0
	}
	hi, _ := bits.Mul64(m, n-1)
	return int64(hi) + 1
}

// etaSrc is the eta function of one other task: eta(r) = ceil((r + resp) /
// period), with recip = etaRecip(period).
type etaSrc struct {
	pos    int
	period rt.Time
	resp   rt.Time
	recip  uint64
}

// etaKernel is the fused step kernel of one task's Theorem 1 recurrence.
// Every r-dependent term of the step (each processor's zeta_k and the
// cluster term of I_A) sums eta_j(r) over the same few other tasks; fill computes each eta_j(r) once, without a division, so
// each sum becomes a plain integer dot product (sum).
//
// The fused sums are bit-identical to etaSum wherever fill accepts the
// window. For non-negative operands a SatAdd/SatMul chain equals
// min(exact, Infinity), and seal and admit bound the window so that every
// exact sum stays below Infinity and every fastdiv operand below 2^32.
// Outside that domain (a period of 1 or at least 2^32, huge response
// bounds or deadlines, saturating work) fill declines and the caller uses
// etaSum.
//
// Build protocol: reset, add once per term, seal, then admit every term
// list the kernel will be asked to sum.
type etaKernel struct {
	src []etaSrc // one entry per task position named by any term list
	// eta holds eta_j(r) by task position after a successful fill. Between
	// reset and seal it marks the positions already in src; seal leaves the
	// per-task maxima over the accepted windows in it for admit.
	eta   []int64
	limit rt.Time // largest window fill accepts; negative disables the kernel
}

// reset starts a kernel for windows up to limit (the analyzed task's
// deadline: rta.FixPointBatch never steps past it). eta must be zeroed,
// with one entry per task position; src needs capacity for every position.
func (k *etaKernel) reset(eta []int64, src []etaSrc, limit rt.Time) {
	k.eta, k.src, k.limit = eta, src[:0], limit
}

// add registers the eta function of the term's task; repeated positions
// are ignored (every term of one task carries the same period and resp).
func (k *etaKernel) add(e etaTerm) {
	if k.eta[e.pos] != 0 {
		return
	}
	k.eta[e.pos] = 1
	k.src = append(k.src, etaSrc{pos: e.pos, period: e.period, resp: e.resp, recip: etaRecip(e.period)})
}

// seal narrows the window limit so that r + resp < 2^32 for every
// registered task, and records each task's largest eta over the accepted
// windows for admit.
func (k *etaKernel) seal() {
	for _, e := range k.src {
		if e.recip == 0 || e.resp < 0 {
			k.limit = -1
			return
		}
		k.limit = min(k.limit, etaDomain-1-e.resp)
	}
	if k.limit < 0 {
		return
	}
	for _, e := range k.src {
		k.eta[e.pos] = rta.Eta(k.limit, e.resp, e.period)
	}
}

// admit disables the kernel unless the sum over terms stays below Infinity
// for every accepted window (eta is monotone in r, so the bound at the
// limit covers them all). After admit, sum over terms cannot overflow.
func (k *etaKernel) admit(terms []etaTerm) {
	if k.limit < 0 {
		return
	}
	var bound rt.Time
	for _, e := range terms {
		bound = rt.SatAdd(bound, rt.SatMul(k.eta[e.pos], e.work))
	}
	if bound >= rt.Infinity {
		k.limit = -1
	}
}

// fill evaluates every registered eta_j(r). It reports false, leaving eta
// untouched, when r lies outside the kernel's exact domain.
func (k *etaKernel) fill(r rt.Time) bool {
	if r < 0 || r > k.limit {
		return false
	}
	for _, e := range k.src {
		k.eta[e.pos] = ceilDivRecip(uint64(r+e.resp), e.recip)
	}
	return true
}

// sum returns sum_j eta_j(r) * work_j over terms: the dot product against
// the filled eta vector when fused is true (fill(r) succeeded), etaSum
// otherwise.
func (k *etaKernel) sum(terms []etaTerm, r rt.Time, fused bool) rt.Time {
	if !fused {
		return etaSum(terms, r)
	}
	var total int64
	for _, e := range terms {
		total += k.eta[e.pos] * e.work
	}
	return total
}
