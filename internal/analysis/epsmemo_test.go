package analysis

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"dpcpp/internal/rt"
)

func TestEpsTableGrowsPastHalfLoad(t *testing.T) {
	var tab epsTable
	tab.reset()
	const n = 1000
	for i := 0; i < n; i++ {
		tab.put(epsKey{proc: rt.ProcID(i % 7), base: rt.Time(i) * 1000}, rt.Time(i))
		if 2*len(tab.rows) > len(tab.slots) {
			t.Fatalf("after %d puts: %d live in %d slots, above the 1/2 load factor", i+1, len(tab.rows), len(tab.slots))
		}
		if len(tab.slots)&(len(tab.slots)-1) != 0 {
			t.Fatalf("backing size %d is not a power of two", len(tab.slots))
		}
	}
	if len(tab.rows) != n {
		t.Fatalf("live = %d, want %d", len(tab.rows), n)
	}
	for i := 0; i < n; i++ {
		v, ok := tab.get(epsKey{proc: rt.ProcID(i % 7), base: rt.Time(i) * 1000})
		if !ok || v != rt.Time(i) {
			t.Fatalf("entry %d lost across growth: (%d, %v)", i, v, ok)
		}
	}
	// A reset keeps the grown backing: refilling it allocates nothing.
	grown := len(tab.slots)
	tab.reset()
	if allocs := testing.AllocsPerRun(5, func() {
		tab.reset()
		for i := 0; i < n; i++ {
			tab.put(epsKey{base: rt.Time(i)}, 1)
		}
	}); allocs != 0 || len(tab.slots) != grown {
		t.Fatalf("refill after reset: %v allocs, %d slots (was %d)", allocs, len(tab.slots), grown)
	}
}

func TestEpsTableGenerationWrap(t *testing.T) {
	var tab epsTable
	tab.reset() // generation 1
	stale := epsKey{proc: 3, base: 42}
	tab.put(stale, 7)
	// Jump to the last generation before the counter wraps back to 1: the
	// slot stamped 1 above must not come back to life afterwards.
	tab.gen = math.MaxUint32
	tab.reset()
	if tab.gen != 1 {
		t.Fatalf("generation after wrap = %d, want 1", tab.gen)
	}
	if _, ok := tab.get(stale); ok {
		t.Fatal("entry stamped 2^32 generations ago read as live after the wrap")
	}
	tab.put(stale, 9)
	if v, ok := tab.get(stale); !ok || v != 9 {
		t.Fatalf("put after wrap: (%d, %v), want (9, true)", v, ok)
	}
}

// TestEpsTableMatchesMap runs random put/get/reset sequences against a Go
// map: lookups agree, and iteration visits exactly the live entries.
func TestEpsTableMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	var tab epsTable
	tab.reset()
	ref := map[epsKey]rt.Time{}
	for op := 0; op < 20000; op++ {
		// A narrow key space forces updates and long probe runs.
		k := epsKey{proc: rt.ProcID(r.Intn(4)), base: rt.Time(r.Intn(300))}
		switch x := r.Intn(100); {
		case x < 2:
			tab.reset()
			clear(ref)
		case x < 50:
			v := r.Int63n(int64(rt.Infinity))
			tab.put(k, v)
			ref[k] = v
		default:
			v, ok := tab.get(k)
			if w, wok := ref[k]; ok != wok || v != w {
				t.Fatalf("op %d: get(%+v) = (%d, %v), map (%d, %v)", op, k, v, ok, w, wok)
			}
		}
		if op%500 == 0 {
			if len(tab.rows) != len(ref) {
				t.Fatalf("op %d: %d rows, map %d", op, len(tab.rows), len(ref))
			}
			rows := append([]epsRow(nil), tab.rows...)
			sort.Slice(rows, func(a, b int) bool {
				if rows[a].key.proc != rows[b].key.proc {
					return rows[a].key.proc < rows[b].key.proc
				}
				return rows[a].key.base < rows[b].key.base
			})
			for i, row := range rows {
				if i > 0 && rows[i-1].key == row.key {
					t.Fatalf("op %d: key %+v iterated twice", op, row.key)
				}
				if w, ok := ref[row.key]; !ok || w != row.val {
					t.Fatalf("op %d: iterated %+v, map has (%d, %v)", op, row, w, ok)
				}
			}
		}
	}
}
