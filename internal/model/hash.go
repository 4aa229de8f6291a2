package model

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
	"sync"

	"dpcpp/internal/rt"
)

// Hash is the content address of a finalized taskset: a SHA-256 digest of
// its canonical serialization. Two tasksets share a Hash exactly when every
// analysis in the repository treats them identically, so the hash is a safe
// cache key for schedulability results.
type Hash [sha256.Size]byte

// String returns the lowercase-hex form used in cache keys and API
// responses.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// Hash returns the taskset's content address. The taskset must be
// finalized: canonicalization depends on assigned priorities and the
// derived request profile.
//
// The invariant the fuzzer pins (FuzzTasksetJSON): for any valid taskset,
// DecodeTaskset(EncodeTaskset(ts)).Hash() == ts.Hash().
func (ts *Taskset) Hash() Hash {
	bp := canonPool.Get().(*[]byte)
	*bp = ts.AppendCanonical((*bp)[:0])
	h := sha256.Sum256(*bp)
	canonPool.Put(bp)
	return h
}

// canonPool holds the scratch buffers Hash and Task.Finalize serialize
// into; the buffers never outlive the call that borrowed them.
var canonPool = sync.Pool{New: func() any { return new([]byte) }}

// AppendCanonical appends the canonical serialization of the taskset to b
// and returns the extended slice. The form is deterministic and normalized:
//
//   - tasks are ordered by ID (their slice order is irrelevant),
//   - vertices appear in index order (Finalize guarantees ID == index),
//   - per-vertex requests are sorted by resource ID with zero counts
//     dropped,
//   - edges are sorted by (from, to) and de-duplicated (a repeated edge is
//     the same precedence constraint),
//   - critical-section lengths appear only for resources the task actually
//     requests (an L_{i,q} with N_{i,q} = 0 never reaches any analysis or
//     the simulator), and
//   - the Name field is omitted (it is documentation, not semantics).
//
// Everything an analysis can observe — processor and resource counts,
// periods, deadlines, priorities, DAG structure, WCETs, request profiles
// and CS lengths — is included, so distinct hashes imply potentially
// distinct verdicts and equal hashes imply equal verdicts.
func (ts *Taskset) AppendCanonical(b []byte) []byte {
	ts.mustFinal()
	b = append(b, "ts/v1|m="...)
	b = strconv.AppendInt(b, int64(ts.NumProcs), 10)
	b = append(b, "|nr="...)
	b = strconv.AppendInt(b, int64(ts.NumResources), 10)
	b = append(b, '\n')

	order := ts.Tasks
	if !slices.IsSortedFunc(order, byID) {
		order = slices.Clone(order)
		slices.SortFunc(order, byID)
	}
	for _, t := range order {
		b = t.appendCanonical(b)
	}
	return b
}

func byID(a, b *Task) int { return cmp.Compare(a.ID, b.ID) }

func (t *Task) appendCanonical(b []byte) []byte {
	b = append(b, "task|"...)
	b = strconv.AppendInt(b, int64(t.ID), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, t.Period, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, t.Deadline, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(t.Priority), 10)
	b = append(b, '\n')
	if t.canon != nil {
		// Finalize froze the structural body; reusing it makes hashing a
		// patched taskset proportional to the number of *rebuilt* tasks,
		// since ApplyPatch shares untouched Task pointers with the base.
		return append(b, t.canon...)
	}
	return t.appendCanonBody(b)
}

// appendCanonBody appends the structural part of the canonical form: the
// vertex, edge and critical-section lines. It is priority-independent, so
// Task.Finalize can cache it before the owning taskset assigns priorities.
// It needs the adjacency lists: emitting each vertex's sorted successors
// in vertex order yields the edges in (from, to) order without sorting
// the edge slice.
func (t *Task) appendCanonBody(b []byte) []byte {
	var qbuf [16]int
	var ybuf [16]rt.VertexID
	qs, ys := qbuf[:0], ybuf[:0]
	for _, v := range t.Vertices {
		b = append(b, 'v')
		b = append(b, '|')
		b = strconv.AppendInt(b, v.WCET, 10)
		qs = qs[:0]
		for q, c := range v.Requests {
			if c > 0 {
				qs = append(qs, int(q))
			}
		}
		slices.Sort(qs)
		for _, q := range qs {
			b = append(b, '|')
			b = strconv.AppendInt(b, int64(q), 10)
			b = append(b, ':')
			b = strconv.AppendInt(b, int64(v.Requests[rt.ResourceID(q)]), 10)
		}
		b = append(b, '\n')
	}

	for x := range t.Vertices {
		ys = append(ys[:0], t.succOf(rt.VertexID(x))...)
		slices.Sort(ys)
		for i, y := range ys {
			if i > 0 && y == ys[i-1] {
				continue // a repeated edge is the same constraint
			}
			b = append(b, 'e')
			b = append(b, '|')
			b = strconv.AppendInt(b, int64(x), 10)
			b = append(b, '|')
			b = strconv.AppendInt(b, int64(y), 10)
			b = append(b, '\n')
		}
	}

	for q, n := range t.nReq {
		if n > 0 {
			b = append(b, "cs|"...)
			b = strconv.AppendInt(b, int64(q), 10)
			b = append(b, ':')
			b = strconv.AppendInt(b, t.CSLen[q], 10)
			b = append(b, '\n')
		}
	}
	return b
}

// freezeCanonBody caches the task's canonical body at its exact length,
// serializing through a pooled scratch buffer.
func (t *Task) freezeCanonBody() {
	bp := canonPool.Get().(*[]byte)
	*bp = t.appendCanonBody((*bp)[:0])
	t.canon = bytes.Clone(*bp)
	canonPool.Put(bp)
}
