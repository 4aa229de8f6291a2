package analysis

import (
	"math/bits"

	"dpcpp/internal/rt"
)

// epsTable is the Lemma 2 epsilon memo: a map from (processor, base) to
// the per-request blocking bound, owned by a Scratch and reused for every
// task it analyzes.
//
// Entries live densely in rows, in insertion order; slots is an
// open-addressed, linear-probing index into rows. A slot is occupied only
// when its stamp equals the table's generation, so reset empties the table
// in O(1) by bumping the generation and truncating rows, never clearing the
// index. The index is grow-only and kept at most half full, so a warmed
// table never allocates and probe sequences stay short.
type epsTable struct {
	rows  []epsRow  // live entries, in insertion order
	slots []epsSlot // power-of-two length, or nil before the first put
	shift uint      // 64 - log2(len(slots)), the Fibonacci-hash shift
	gen   uint32    // stamp of occupied slots; never 0 once in use
}

// epsRow is one epsilon memo entry.
type epsRow struct {
	key epsKey
	val rt.Time
}

type epsSlot struct {
	gen uint32
	row int32 // index into rows
}

// epsTableMinSlots is the index size of a table's first growth.
const epsTableMinSlots = 64

// reset empties the table. When the generation counter wraps, the index is
// cleared once so stamps from 2^32 generations ago cannot read as occupied.
//
//schedlint:hotpath
func (t *epsTable) reset() {
	t.gen++
	if t.gen == 0 {
		clear(t.slots)
		t.gen = 1
	}
	t.rows = t.rows[:0]
}

// epsHash mixes both key fields; the high bits of the product index the
// table (Fibonacci hashing), so bases that differ only in high digits
// still spread.
func epsHash(k epsKey, shift uint) int {
	h := uint64(k.base) ^ uint64(k.proc)*0xc2b2ae3d27d4eb4f
	return int((h * 0x9e3779b97f4a7c15) >> shift)
}

// find returns the index of k's slot, or of the free slot where k belongs.
// The table must have a free slot.
func (t *epsTable) find(k epsKey) int {
	mask := len(t.slots) - 1
	for i := epsHash(k, t.shift); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.gen != t.gen || t.rows[s.row].key == k {
			return i
		}
	}
}

// get returns the memoized value for k, if any.
//
//schedlint:hotpath
func (t *epsTable) get(k epsKey) (rt.Time, bool) {
	if len(t.rows) == 0 {
		return 0, false
	}
	s := &t.slots[t.find(k)]
	if s.gen != t.gen {
		return 0, false
	}
	return t.rows[s.row].val, true
}

// put stores v under k, replacing any existing value. The zero table is
// ready for use.
//
//schedlint:hotpath
func (t *epsTable) put(k epsKey, v rt.Time) {
	if t.gen == 0 {
		t.gen = 1
	}
	if 2*(len(t.rows)+1) > len(t.slots) {
		t.grow()
	}
	s := &t.slots[t.find(k)]
	if s.gen == t.gen {
		t.rows[s.row].val = v
		return
	}
	*s = epsSlot{gen: t.gen, row: int32(len(t.rows))}
	t.rows = append(t.rows, epsRow{key: k, val: v})
}

// grow doubles the index and re-inserts the live rows into it.
func (t *epsTable) grow() {
	n := 2 * len(t.slots)
	if n < epsTableMinSlots {
		n = epsTableMinSlots
	}
	//schedlint:ignore hotpath grow-only resize past the 1/2 load factor; a warmed table never re-enters this branch
	t.slots = make([]epsSlot, n)
	t.shift = uint(65 - bits.Len(uint(n)))
	for i := range t.rows {
		t.slots[t.find(t.rows[i].key)] = epsSlot{gen: t.gen, row: int32(i)}
	}
}
