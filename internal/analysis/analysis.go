// Package analysis implements the schedulability analyses the paper
// evaluates: the DPCP-p worst-case response-time analysis of Sec. IV in its
// EP (enumerate paths) and EN (enumerate request counts) variants, and the
// three baselines of Sec. VII-B — SPIN-SON (FIFO spin locks), LPP
// (suspension-based semaphores) and FED-FP (federated scheduling ignoring
// resources). Each analysis plugs into the partitioning loop of
// internal/partition as a partition.Analyzer.
//
//schedlint:deterministic
package analysis

import (
	"fmt"
	"slices"
	"strings"

	"dpcpp/internal/model"
	"dpcpp/internal/partition"
	"dpcpp/internal/rt"
)

// Method selects one of the analyses under comparison.
type Method string

const (
	// DPCPpEP is DPCP-p with per-path analysis (Sec. IV, enumerate paths).
	DPCPpEP Method = "DPCP-p-EP"
	// DPCPpEN is DPCP-p with path-oblivious per-term bounds (the paper's
	// baseline that enumerates the per-resource request counts).
	DPCPpEN Method = "DPCP-p-EN"
	// SPIN is the FIFO spin-lock baseline (SPIN-SON, Dinh et al.).
	SPIN Method = "SPIN-SON"
	// LPP is the suspension-based semaphore baseline (Jiang et al.).
	LPP Method = "LPP"
	// FEDFP is federated scheduling with resources ignored (Li et al.).
	FEDFP Method = "FED-FP"
)

// Methods lists every implemented method in the paper's comparison order.
func Methods() []Method { return []Method{DPCPpEP, DPCPpEN, SPIN, LPP, FEDFP} }

// ParseMethods validates and resolves a list of method names, trimming
// surrounding whitespace; an empty list means all five. It is the one
// place method names from flags, requests and checkpoints are checked.
func ParseMethods(names []string) ([]Method, error) {
	if len(names) == 0 {
		return Methods(), nil
	}
	out := make([]Method, 0, len(names))
	for _, name := range names {
		m := Method(strings.TrimSpace(name))
		if !slices.Contains(Methods(), m) {
			return nil, fmt.Errorf("unknown method %q (known: %v)", name, Methods())
		}
		out = append(out, m)
	}
	return out, nil
}

// Options tunes an analysis run.
type Options struct {
	// PathCap bounds EP path enumeration per task; tasks whose DAGs exceed
	// it fall back to the (sound) EN bounds. <= 0 means the default.
	PathCap int
	// Placement selects the resource-placement heuristic for DPCP-p
	// (Algorithm 2 WFD by default; FFD as an ablation).
	Placement partition.PlacementHeuristic
}

// DefaultPathCap bounds path enumeration when Options.PathCap is unset.
const DefaultPathCap = 4096

func (o Options) pathCap() int {
	if o.PathCap > 0 {
		return o.PathCap
	}
	return DefaultPathCap
}

// Test runs the full schedulability pipeline for the method: processor
// assignment (with resource placement for DPCP-p) plus the method's
// response-time analysis, returning the partitioning result.
func Test(m Method, ts *model.Taskset, opts Options) partition.Result {
	return TestWith(nil, m, ts, opts)
}

// TestWith is Test computing through a caller-recycled Scratch (nil falls
// back to a private one). Repeated analyses on one scratch — the
// steady-state of a grid sweep — reuse every arena and map the hot path
// touches, so an EN or EP taskset test settles at (near-)zero allocations.
// The Result is entirely scratch-independent: it may be retained while the
// scratch moves on to the next taskset. A Scratch serves one goroutine at a
// time.
func TestWith(sc *Scratch, m Method, ts *model.Taskset, opts Options) partition.Result {
	switch m {
	case DPCPpEP, DPCPpEN:
		if sc == nil {
			sc = NewScratch()
		}
		en := m == DPCPpEN
		return partition.Algorithm1(ts, newDPCPp(sc, ts, opts.pathCap(), en), opts.Placement)
	case SPIN:
		return partition.IterativeFederated(ts, NewSpin(ts))
	case LPP:
		return partition.IterativeFederated(ts, NewLPP(ts))
	case FEDFP:
		return partition.IterativeFederated(ts, NewFedFP(ts))
	default:
		panic(fmt.Sprintf("analysis: unknown method %q", m))
	}
}

// Schedulable is a convenience wrapper returning only the verdict.
func Schedulable(m Method, ts *model.Taskset, opts Options) bool {
	return Test(m, ts, opts).Schedulable
}

// knownOrDeadline returns the response-time bound to use for eta terms:
// the already-computed WCRT for higher-priority tasks, or the deadline for
// tasks not yet analyzed (sound within the test: if they later fail, the
// whole set is rejected anyway).
func knownOrDeadline(wcrts map[rt.TaskID]rt.Time, t *model.Task) rt.Time {
	if r, ok := wcrts[t.ID]; ok && r <= t.Deadline {
		return r
	}
	return t.Deadline
}
