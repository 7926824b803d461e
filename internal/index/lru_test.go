package index

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := NewLRU[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a") // refresh a: b is now the coldest
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("least recently used entry survived eviction")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("entry %q evicted wrongly", k)
		}
	}
}

func TestLRUOverwriteDoesNotEvict(t *testing.T) {
	c := NewLRU[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("b", 20)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v,%v", v, ok)
	}
	if v, ok := c.Get("b"); !ok || v != 20 {
		t.Fatalf("Get(b) = %v,%v", v, ok)
	}
}

func TestLRUConcurrent(t *testing.T) {
	c := NewLRU[string, int](64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", i%100)
				if i%3 == 0 {
					c.Put(k, i)
				} else {
					c.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("capacity exceeded: %d", c.Len())
	}
}

// scanLRU is the reference model the linked-list LRU replaced, kept
// verbatim in behaviour: every access stamps the entry with a logical
// clock and a Put into a full cache evicts the entry with the oldest
// stamp, found by scanning them all. TestLRUMatchesScanModel holds the
// O(1) implementation to it.
type scanLRU[K comparable, V any] struct {
	capacity int
	entries  map[K]*scanEntry[V]
	clock    int64
}

type scanEntry[V any] struct {
	value V
	stamp int64
}

func newScanLRU[K comparable, V any](capacity int) *scanLRU[K, V] {
	return &scanLRU[K, V]{capacity: max(capacity, 1), entries: make(map[K]*scanEntry[V])}
}

func (c *scanLRU[K, V]) tick() int64 { c.clock++; return c.clock }

func (c *scanLRU[K, V]) get(key K) (V, bool) {
	e := c.entries[key]
	if e == nil {
		var zero V
		return zero, false
	}
	e.stamp = c.tick()
	return e.value, true
}

// put returns the key it evicted, if it evicted one.
func (c *scanLRU[K, V]) put(key K, v V) (victim K, evicted bool) {
	if _, exists := c.entries[key]; !exists && len(c.entries) >= c.capacity {
		oldest := int64(0)
		for k, e := range c.entries {
			if !evicted || e.stamp < oldest {
				victim, oldest, evicted = k, e.stamp, true
			}
		}
		delete(c.entries, victim)
	}
	c.entries[key] = &scanEntry[V]{value: v, stamp: c.tick()}
	return victim, evicted
}

// TestLRUMatchesScanModel drives the LRU and the scan model with the
// same random Get / Put / overwrite sequence. After every operation both
// must agree on what the operation returned and on Len; every eviction
// must take the model's victim; and the full contents are compared at
// intervals and at the end.
func TestLRUMatchesScanModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 1024} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			real, model := NewLRU[int, int](capacity), newScanLRU[int, int](capacity)
			same := func(op string, step int) {
				t.Helper()
				real.mu.Lock()
				defer real.mu.Unlock()
				if len(real.entries) != len(model.entries) {
					t.Fatalf("step %d (%s): %d entries, model has %d", step, op, len(real.entries), len(model.entries))
				}
				for k, e := range model.entries {
					if got := real.entries[k]; got == nil || got.value != e.value {
						t.Fatalf("step %d (%s): key %d holds %v, model has %d", step, op, k, got, e.value)
					}
				}
			}
			keys := 2*capacity + 3 // more keys than slots, so Puts evict
			steps := 20000 + 8*capacity
			for step := 0; step < steps; step++ {
				k, v := rng.Intn(keys), rng.Int()
				var op string
				switch p := rng.Intn(100); {
				case p < 45:
					op = "get"
					gv, gok := real.Get(k)
					wv, wok := model.get(k)
					if gv != wv || gok != wok {
						t.Fatalf("step %d: Get(%d) = %d,%v; model %d,%v", step, k, gv, gok, wv, wok)
					}
				default:
					op = "put"
					real.Put(k, v)
					if victim, evicted := model.put(k, v); evicted {
						real.mu.Lock()
						_, still := real.entries[victim]
						real.mu.Unlock()
						if still {
							t.Fatalf("step %d: Put(%d) kept key %d, the model's victim", step, k, victim)
						}
					}
				}
				if real.Len() != len(model.entries) {
					t.Fatalf("step %d (%s %d): Len %d, model %d", step, op, k, real.Len(), len(model.entries))
				}
				if step%251 == 0 {
					same(op, step)
				}
			}
			same("end", steps)
		})
	}
}

// BenchmarkLRUPutFull is the cost of one insert into a full cache — the
// eviction path every cold fill takes twice. It must not grow with the
// capacity.
func BenchmarkLRUPutFull(b *testing.B) {
	for _, capacity := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprint(capacity), func(b *testing.B) {
			c := NewLRU[int, int](capacity)
			for i := 0; i < capacity; i++ {
				c.Put(i, i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Put(capacity+i, i)
			}
		})
	}
}
