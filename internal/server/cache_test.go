package server

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// sameShardKeys returns n distinct keys hashing to one shard, so tests can
// exercise recency and skew deterministically.
func sameShardKeys(c *lru[*MethodResult], n int) []string {
	var keys []string
	shard := c.shard("anchor")
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("key-%d", i)
		if c.shard(k) == shard {
			keys = append(keys, k)
		}
	}
	return keys
}

// waiting reports how many callers are coalesced onto the key's in-flight
// execution (0 when none is in flight), so tests can release a leader only
// once its followers have joined.
func (g *flightGroup[V]) waiting(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		return c.waiters
	}
	return 0
}

func TestResultCacheLRU(t *testing.T) {
	// Capacity two, three keys in one shard: the insert that overflows the
	// cache evicts the least recently used entry, a get refreshes recency,
	// and a re-add replaces the value without growth.
	c := newLRU[*MethodResult](2)
	keys := sameShardKeys(c, 3)
	a, b, d := keys[0], keys[1], keys[2]

	c.add(a, &MethodResult{Rounds: 1})
	if v, ok := c.get(a); !ok || v.Rounds != 1 {
		t.Fatal("missing entry just added")
	}
	c.add(b, &MethodResult{Rounds: 2})
	if _, ok := c.get(a); !ok { // refresh a: b becomes the LRU
		t.Fatal("entry evicted below capacity")
	}
	c.add(b, &MethodResult{Rounds: 3}) // refresh, no growth
	if v, _ := c.get(b); v == nil || v.Rounds != 3 {
		t.Fatal("re-add did not replace the value")
	}
	c.add(d, &MethodResult{Rounds: 4}) // over capacity: evicts the LRU (a)
	if _, ok := c.get(a); ok {
		t.Fatal("LRU did not evict the least recently used entry")
	}
	if _, ok := c.get(b); !ok {
		t.Fatal("recently used entry evicted instead")
	}
	if _, ok := c.get(d); !ok {
		t.Fatal("newest entry evicted instead")
	}
	if got := c.entries(); got != 2 {
		t.Fatalf("entries() = %d, want 2", got)
	}
}

// TestResultCacheCapacityBound is the regression test for the per-shard
// rounding bug: a cache configured for size entries must never hold more,
// no matter how many keys are inserted or how they skew across shards.
func TestResultCacheCapacityBound(t *testing.T) {
	const size = 100
	c := newLRU[*MethodResult](size)
	for i := 0; i < 5*size; i++ {
		c.add(fmt.Sprintf("key-%d", i), &MethodResult{Rounds: i})
		if got := c.entries(); got > size {
			t.Fatalf("after %d inserts: entries() = %d, above configured size %d", i+1, got, size)
		}
	}
	if got := c.entries(); got != size {
		t.Fatalf("full cache holds %d entries, want exactly %d", got, size)
	}
	// The newest entry survives its own insert's eviction pass.
	if _, ok := c.get(fmt.Sprintf("key-%d", 5*size-1)); !ok {
		t.Fatal("most recent insert was evicted")
	}
}

// TestResultCacheCapacityBoundSkewed drives every insert into one shard:
// the global bound must hold even when the key distribution is degenerate,
// and the skewed shard keeps the hottest entries instead of evicting at a
// fraction of the configured size.
func TestResultCacheCapacityBoundSkewed(t *testing.T) {
	const size = 24
	c := newLRU[*MethodResult](size)
	keys := sameShardKeys(c, 3*size)
	for _, k := range keys {
		c.add(k, &MethodResult{})
		if got := c.entries(); got > size {
			t.Fatalf("skewed inserts: entries() = %d, above configured size %d", got, size)
		}
	}
	if got := c.entries(); got != size {
		t.Fatalf("skewed shard holds %d entries, want the full capacity %d", got, size)
	}
	for _, k := range keys[len(keys)-size:] {
		if _, ok := c.get(k); !ok {
			t.Fatalf("recent key %q evicted while older ones were retained", k)
		}
	}
}

// TestResultCacheTinyNeverEvictsFreshInsert: with size below the shard
// count most shards hold at most one entry, and an insert must evict a
// stale entry from another shard — never the entry it just added.
func TestResultCacheTinyNeverEvictsFreshInsert(t *testing.T) {
	c := newLRU[*MethodResult](1)
	// Two keys in different shards.
	a := "key-a"
	b := ""
	for i := 0; b == ""; i++ {
		k := fmt.Sprintf("key-%d", i)
		if c.shard(k) != c.shard(a) {
			b = k
		}
	}
	c.add(a, &MethodResult{Rounds: 1})
	c.add(b, &MethodResult{Rounds: 2})
	if _, ok := c.get(b); !ok {
		t.Fatal("fresh insert evicted itself while a stale entry survived")
	}
	if _, ok := c.get(a); ok {
		t.Fatal("stale entry retained past capacity")
	}
	if got := c.entries(); got != 1 {
		t.Fatalf("entries() = %d, want 1", got)
	}
}

func TestResultCacheCapacityFloor(t *testing.T) {
	c := newLRU[*MethodResult](1) // must still hold at least one entry
	c.add("x", &MethodResult{})
	if _, ok := c.get("x"); !ok {
		t.Fatal("tiny cache cannot hold a single entry")
	}
	c.add("y", &MethodResult{})
	if got := c.entries(); got != 1 {
		t.Fatalf("size-1 cache holds %d entries", got)
	}
}

func TestFlightGroupSequential(t *testing.T) {
	var g flightGroup[*MethodResult]
	ctx := context.Background()
	calls := 0
	v1, err, shared := g.do(ctx, "k", func(context.Context) (*MethodResult, error) {
		calls++
		return &MethodResult{Rounds: 7}, nil
	})
	if err != nil || shared || v1.Rounds != 7 || calls != 1 {
		t.Fatalf("first do: err=%v shared=%v calls=%d", err, shared, calls)
	}
	// After completion the key is released: a later call runs again.
	_, err, shared = g.do(ctx, "k", func(context.Context) (*MethodResult, error) {
		calls++
		return &MethodResult{}, nil
	})
	if err != nil || shared || calls != 2 {
		t.Fatalf("second do: err=%v shared=%v calls=%d, want a fresh execution", err, shared, calls)
	}
}

func TestFlightGroupCoalesces(t *testing.T) {
	var g flightGroup[*MethodResult]
	const n = 8
	started := make(chan struct{})
	release := make(chan struct{})
	calls := 0
	leaderFn := func(context.Context) (*MethodResult, error) {
		close(started)
		calls++
		<-release
		return &MethodResult{Rounds: 42}, nil
	}

	var wg sync.WaitGroup
	sharedCount := 0
	var mu sync.Mutex
	run := func(fn func(context.Context) (*MethodResult, error)) {
		defer wg.Done()
		v, err, shared := g.do(context.Background(), "k", fn)
		if err != nil || v.Rounds != 42 {
			t.Errorf("wrong value %+v (err %v)", v, err)
		}
		mu.Lock()
		if shared {
			sharedCount++
		}
		mu.Unlock()
	}
	wg.Add(1)
	go run(leaderFn)
	<-started // leader registered and executing
	for i := 0; i < n-1; i++ {
		wg.Add(1)
		go run(func(context.Context) (*MethodResult, error) {
			t.Error("follower fn executed: coalescing failed")
			return &MethodResult{Rounds: 42}, nil
		})
	}
	// Release only once every follower has joined the in-flight call, so
	// none can arrive late and start a second execution.
	deadline := time.Now().Add(10 * time.Second)
	for g.waiting("k") < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers coalesced", g.waiting("k"), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	if sharedCount != n-1 {
		t.Fatalf("%d callers saw shared=true, want %d", sharedCount, n-1)
	}
}
