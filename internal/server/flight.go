package server

import (
	"context"
	"sync"
)

// flightGroup coalesces concurrent duplicate work: all callers that ask
// for the same key while one computation is in flight block on that one
// computation and share its result. Combined with the content-addressed
// cache key, N concurrent identical analyze requests cost exactly one
// analysis — the acceptance invariant the coalescing test pins.
//
// The group is generic in its result type so the same primitive serves the
// engine's method-result flights (full analyses and incremental delta
// analyses share one group — and therefore one in-flight computation — per
// patched-taskset cache key) and any future value-shaped work.
//
// Cancellation is per-caller, not per-computation: the computation runs on
// its own goroutine under a flight-owned context, so a waiter whose
// request context ends abandons the flight immediately — freeing its
// handler goroutine — without cancelling the shared work, and the result
// still lands in the cache for the next caller. Only when every attached
// caller has abandoned is the flight context cancelled, which lets a
// computation nobody is waiting for stop at its next cancellation point
// (worker-slot acquisition) instead of burning a slot on a verdict no one
// will read.
//
// This is a minimal singleflight (the x/sync dependency is deliberately
// avoided): no panic forwarding — fn must not panic, which engine.analyze
// guarantees by validating tasksets before any flight starts.
type flightGroup[V any] struct {
	mu sync.Mutex
	m  map[string]*flightCall[V]
}

type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
	// waiters counts callers coalesced onto this execution (guarded by
	// the group mutex); tests use it to prove all N callers overlapped.
	waiters int
	// refs counts attached callers including the initiator; when it drops
	// to zero before the computation finishes, cancel fires.
	refs   int
	cancel context.CancelFunc
}

// do returns fn's result for key, executing fn at most once across all
// concurrent callers with that key. fn runs on its own goroutine under a
// flight-owned context (see the type comment); each caller waits for the
// result or its own ctx, whichever ends first. shared reports whether this
// caller attached to an execution started by another goroutine.
func (g *flightGroup[V]) do(ctx context.Context, key string,
	fn func(context.Context) (V, error)) (val V, err error, shared bool) {

	for {
		g.mu.Lock()
		if g.m == nil {
			g.m = make(map[string]*flightCall[V])
		}
		c, ok := g.m[key]
		if ok {
			c.waiters++
			c.refs++
			shared = true
		} else {
			//schedlint:ignore ctxflow detached by design: the flight outlives any one caller; the refcounted cancel tears it down when the last waiter leaves
			fctx, cancel := context.WithCancel(context.Background())
			c = &flightCall[V]{done: make(chan struct{}), refs: 1, cancel: cancel}
			g.m[key] = c
			go func() {
				c.val, c.err = fn(fctx)
				g.mu.Lock()
				delete(g.m, key)
				g.mu.Unlock()
				close(c.done)
				cancel()
			}()
		}
		g.mu.Unlock()

		select {
		case <-c.done:
			if c.err != nil && ctx.Err() == nil {
				// The flight died because an earlier cohort abandoned it
				// in the instant before this caller attached; this
				// caller's context is still live, so start a fresh one.
				continue
			}
			return c.val, c.err, shared
		case <-ctx.Done():
			g.mu.Lock()
			c.refs--
			if c.refs == 0 {
				c.cancel()
			}
			g.mu.Unlock()
			var zero V
			return zero, ctx.Err(), shared
		}
	}
}

// wait blocks until no computation is in flight. A computation outlives
// the callers that abandoned it, so this is how an owner makes sure
// nothing started through the group still writes to the cache or the
// store.
func (g *flightGroup[V]) wait() {
	for {
		var c *flightCall[V]
		g.mu.Lock()
		for _, c = range g.m {
			break
		}
		g.mu.Unlock()
		if c == nil {
			return
		}
		<-c.done
	}
}
