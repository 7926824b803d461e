package index

import (
	"fmt"
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

func TestLRUStatsAndPurge(t *testing.T) {
	c := NewLRU[string, int](4)
	c.Get("nope")
	c.Put("a", 1)
	c.Get("a")
	h, m := c.Stats()
	if h != 1 || m != 1 {
		t.Fatalf("stats = %d,%d", h, m)
	}
	c.Purge()
	if c.Len() != 0 {
		t.Fatal("purge left entries")
	}
	if h, _ := c.Stats(); h != 1 {
		t.Fatal("purge reset counters")
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
