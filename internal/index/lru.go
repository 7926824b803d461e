package index

import (
	"sync"
	"sync/atomic"
)

// LRU is a bounded, concurrency-safe cache with exact
// least-recently-used eviction: overflow evicts only the coldest entry,
// so a hot working set survives churn. Entries never expire — capacity
// is the memory bound, and owners of derived data drop stale entries
// with Purge.
//
// Recency is an intrusive doubly linked list threaded through the
// entries, most recent first, under the cache's one mutex. Every
// operation is O(1) whatever the capacity: Get is a map lookup and a
// relink, Put a map insert and — when full — an unlink of the list's
// tail, whose node the new entry reuses. A cold walk over a working set
// larger than the cache therefore pays the same per insert as a warm
// one pays per hit; nothing scans the entries. Peek takes the same lock
// but leaves the order and the counters alone.
type LRU[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[K]*lruEntry[K, V]
	// root is the list's sentinel: root.next is the most recently used
	// entry, root.prev the eviction victim. An empty list points at
	// itself both ways.
	root   lruEntry[K, V]
	hits   atomic.Int64 //provlint:counter
	misses atomic.Int64 //provlint:counter
}

type lruEntry[K comparable, V any] struct {
	key        K
	value      V
	prev, next *lruEntry[K, V]
}

// NewLRU returns an LRU bounded to capacity entries (values < 1 are
// clamped to 1).
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	c := &LRU[K, V]{capacity: capacity}
	c.resetLocked()
	return c
}

// resetLocked installs an empty map and list. The map is left to grow: a
// cache is sized for the widest owner and most hold a fraction of that, so
// a capacity-sized map per cache per reset is mostly waste. Caller holds
// c.mu (or is the constructor).
func (c *LRU[K, V]) resetLocked() {
	c.entries = make(map[K]*lruEntry[K, V])
	c.root.prev, c.root.next = &c.root, &c.root
}

func (e *lruEntry[K, V]) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
}

// pushFrontLocked links e as the most recently used entry.
func (c *LRU[K, V]) pushFrontLocked(e *lruEntry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}

// Get returns the cached value for key and marks it most recently used.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	var v V
	c.mu.Lock()
	e := c.entries[key]
	if e != nil {
		if c.root.next != e {
			e.unlink()
			c.pushFrontLocked(e)
		}
		// Read under the lock: an eviction may hand this node to
		// another key as soon as it is released.
		v = e.value
	}
	c.mu.Unlock()
	if e == nil {
		c.misses.Add(1)
		return v, false
	}
	c.hits.Add(1)
	return v, true
}

// Peek returns the cached value for key without touching the hit/miss
// counters or the recency order — for double-check paths that already
// counted their initial Get.
func (c *LRU[K, V]) Peek(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil {
		return e.value, true
	}
	var zero V
	return zero, false
}

// Put stores a value for key as the most recently used entry, evicting
// the least recently used one when the cache is full.
func (c *LRU[K, V]) Put(key K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	switch {
	case e != nil:
		e.unlink()
	case len(c.entries) >= c.capacity:
		// Full: the victim's node carries the new entry.
		e = c.root.prev
		e.unlink()
		delete(c.entries, e.key)
		e.key = key
		c.entries[key] = e
	default:
		e = &lruEntry[K, V]{key: key}
		c.entries[key] = e
	}
	e.value = v
	c.pushFrontLocked(e)
}

// Len returns the number of entries currently held.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Purge drops every entry, keeping the hit/miss counters.
func (c *LRU[K, V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resetLocked()
}

// Stats returns cumulative (hits, misses).
func (c *LRU[K, V]) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}
