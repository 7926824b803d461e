package index

import "sync"

// LRU is a bounded, concurrency-safe cache with exact
// least-recently-used eviction: overflow evicts only the coldest entry,
// so a hot working set survives churn. Entries never expire and are never
// dropped wholesale — capacity is the memory bound, and an owner whose
// derived data goes stale drops the cache with it.
//
// Recency is an intrusive doubly linked list threaded through the
// entries, most recent first, under the cache's one mutex. Every
// operation is O(1) whatever the capacity: Get is a map lookup and a
// relink, Put a map insert and — when full — an unlink of the list's
// tail, whose node the new entry reuses. A cold walk over a working set
// larger than the cache therefore pays the same per insert as a warm
// one pays per hit; nothing scans the entries. The cache counts nothing:
// an owner that reports hits and misses counts them where it looks up.
type LRU[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[K]*lruEntry[K, V]
	// root is the list's sentinel: root.next is the most recently used
	// entry, root.prev the eviction victim. An empty list points at
	// itself both ways.
	root lruEntry[K, V]
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
	// The map is left to grow: a cache is sized for the widest owner and
	// most hold a fraction of that, so a capacity-sized map per cache is
	// mostly waste.
	c := &LRU[K, V]{capacity: capacity, entries: make(map[K]*lruEntry[K, V])}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
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
	return v, e != nil
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
