package repo

import (
	"fmt"
	"sync"
)

// flightGroup is a minimal singleflight: concurrent Do calls with the
// same key share one execution of fn and all receive its result, so a
// thundering herd of identical cold requests performs the expensive
// construction exactly once. A group is scoped to the object whose
// derived data it builds — one generation, for its masked snapshots — so a
// key can never be joined by a caller holding a different incarnation of
// the same spec id.
type flightGroup[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*flightCall[V]
}

type flightCall[V any] struct {
	wg  sync.WaitGroup
	val V
	err error
	// dups counts the callers that joined this call instead of running
	// fn; guarded by the group's mu.
	dups int
}

// Do invokes fn once per key among concurrent callers: the first caller
// runs it, the rest block until it finishes and share the result. The
// key is forgotten afterwards, so later calls run fn again (the cache
// layered above decides freshness).
func (g *flightGroup[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[K]*flightCall[V])
	}
	if c, ok := g.calls[key]; ok {
		c.dups++
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, c.err
	}
	c := &flightCall[V]{}
	c.wg.Add(1)
	g.calls[key] = c
	g.mu.Unlock()

	// Cleanup must run even when fn panics: otherwise the key stays in
	// g.calls and current + future callers for it block forever. A
	// panicking fn is converted into an error for the waiters and
	// re-raised in the original caller.
	defer func() {
		rec := recover()
		if rec != nil {
			var zero V
			c.val, c.err = zero, fmt.Errorf("repo: singleflight: panic: %v", rec)
		}
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		c.wg.Done()
		if rec != nil {
			panic(rec)
		}
	}()
	c.val, c.err = fn()
	return c.val, c.err
}
