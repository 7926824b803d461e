package index

import (
	"sync"
	"sync/atomic"
)

// LRU is a bounded, concurrency-safe cache with least-recently-used
// eviction: overflow evicts only the coldest entry, so a hot working
// set survives churn. Entries never expire — capacity is the memory
// bound, and owners of derived data drop stale entries with Purge.
//
// The read path is designed for many concurrent readers: Get takes only
// a read lock and records recency with an atomic logical-clock stamp, so
// hits never serialize on a write lock. Put (misses only, by definition)
// takes the write lock and, when full, evicts the smallest-stamp entry
// with a scan — O(capacity), paid only on insert into a full cache,
// which keeps the hot path cheap without a shared intrusive list.
type LRU[K comparable, V any] struct {
	mu       sync.RWMutex
	capacity int
	entries  map[K]*lruEntry[V]
	clock    atomic.Int64
	hits     atomic.Int64 //provlint:counter
	misses   atomic.Int64 //provlint:counter
}

type lruEntry[V any] struct {
	value V
	stamp atomic.Int64 // logical last-access time
}

// NewLRU returns an LRU bounded to capacity entries (values < 1 are
// clamped to 1).
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU[K, V]{
		capacity: capacity,
		entries:  make(map[K]*lruEntry[V], capacity),
	}
}

// Get returns the cached value for key.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.RLock()
	e := c.entries[key]
	c.mu.RUnlock()
	if e == nil {
		c.misses.Add(1)
		var zero V
		return zero, false
	}
	e.stamp.Store(c.clock.Add(1))
	c.hits.Add(1)
	return e.value, true
}

// Peek returns the cached value for key without touching the hit/miss
// counters or the recency stamp — for double-check paths that already
// counted their initial Get.
func (c *LRU[K, V]) Peek(key K) (V, bool) {
	c.mu.RLock()
	e := c.entries[key]
	c.mu.RUnlock()
	if e == nil {
		var zero V
		return zero, false
	}
	return e.value, true
}

// Put stores a value for key, evicting the least recently used entry
// when the cache is full.
func (c *LRU[K, V]) Put(key K, v V) {
	e := &lruEntry[V]{value: v}
	e.stamp.Store(c.clock.Add(1))
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.entries[key]; !exists && len(c.entries) >= c.capacity {
		c.evictLocked()
	}
	c.entries[key] = e
}

// evictLocked removes the entry with the oldest access stamp. Caller
// holds c.mu.
func (c *LRU[K, V]) evictLocked() {
	var coldest K
	oldest := int64(0)
	first := true
	for k, e := range c.entries {
		if s := e.stamp.Load(); first || s < oldest {
			coldest, oldest, first = k, s, false
		}
	}
	delete(c.entries, coldest)
}

// Len returns the number of entries currently held.
func (c *LRU[K, V]) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Purge drops every entry, keeping the hit/miss counters.
func (c *LRU[K, V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[K]*lruEntry[V], c.capacity)
}

// Stats returns cumulative (hits, misses).
func (c *LRU[K, V]) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}
