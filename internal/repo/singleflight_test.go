package repo

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// waiters reports how many callers have joined the in-flight call for
// key (-1 when no call is in flight) — the gate the singleflight tests
// release on instead of sleeping.
func (g *flightGroup[K, V]) waiters(key K) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c.dups
	}
	return -1
}

// awaitWaiters spins until n callers have joined the flight for key.
func awaitWaiters[K comparable, V any](g *flightGroup[K, V], key K, n int) {
	for g.waiters(key) < n {
		runtime.Gosched()
	}
}

func TestFlightGroupSharesResult(t *testing.T) {
	var g flightGroup[string, string]
	var calls atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]string, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := g.Do("k", func() (string, error) {
				calls.Add(1)
				<-gate // hold the flight open until all callers queue
				return "shared", nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[i] = v
		}(i)
	}
	awaitWaiters(&g, "k", 7)
	close(gate)
	wg.Wait()
	for i, v := range results {
		if v != "shared" {
			t.Fatalf("caller %d got %v", i, v)
		}
	}
	if c := calls.Load(); c != 1 {
		t.Fatalf("calls = %d, want 1", c)
	}
}

func TestFlightGroupErrorShared(t *testing.T) {
	var g flightGroup[string, int]
	want := errors.New("boom")
	if _, err := g.Do("k", func() (int, error) { return 0, want }); !errors.Is(err, want) {
		t.Fatalf("err = %v", err)
	}
	// The key is forgotten afterwards: a later call runs fresh.
	v, err := g.Do("k", func() (int, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("retry = %v, %v", v, err)
	}
}

// TestFlightGroupPanic checks the cleanup contract: a panicking fn must
// release the key (no permanent wedge) and re-raise in the caller.
func TestFlightGroupPanic(t *testing.T) {
	var g flightGroup[string, string]
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic not propagated to caller")
			}
		}()
		_, _ = g.Do("k", func() (string, error) { panic("boom") })
	}()
	// The key must have been released: this call runs, not deadlocks.
	v, err := g.Do("k", func() (string, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("post-panic Do = %v, %v", v, err)
	}
}
