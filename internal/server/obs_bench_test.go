package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"provpriv/internal/obs"
	"provpriv/internal/privacy"
	"provpriv/internal/repo"
	"provpriv/internal/workflow"
)

// benchFixture builds the disease-susceptibility repository without a
// testing.T (testing.Benchmark runs outside the test's lifecycle).
func benchFixture(tb testing.TB) *repo.Repository {
	tb.Helper()
	r := repo.New()
	s := workflow.DiseaseSusceptibility()
	pol := privacy.NewPolicy(s.ID)
	pol.DataLevels["snps"] = privacy.Owner
	if err := r.AddSpec(s, pol); err != nil {
		tb.Fatal(err)
	}
	r.AddUser(privacy.User{Name: "alice", Level: privacy.Owner, Group: "owners"})
	return r
}

// searchOnce performs one warm-path search against h and fails the
// benchmark if the route errors (a 500 would silently skew allocs).
func searchOnce(tb testing.TB, h http.Handler) {
	req, err := http.NewRequest(http.MethodGet, "/api/v1/search?q=omim", nil)
	if err != nil {
		tb.Fatal(err)
	}
	req.Header.Set("X-Prov-User", "alice")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		tb.Fatalf("search status = %d: %s", w.Code, w.Body.String())
	}
}

// benchHandlers returns the same server three ways: bare (no Observer),
// wrapped with tracing disabled (the production default path for
// unsampled requests), and wrapped with every request sampled.
func benchHandlers(tb testing.TB) (bare, unsampled, sampled http.Handler) {
	r := benchFixture(tb)
	srv := New(r)
	bare = srv

	srvU := New(r)
	srvU.Obs = obs.NewObserver(obs.NewMetrics(), nil, obs.NewTracer(64, 0, time.Hour))
	unsampled = srvU.Handler()

	srvS := New(r)
	srvS.Obs = obs.NewObserver(obs.NewMetrics(), nil, obs.NewTracer(64, 1, time.Hour))
	sampled = srvS.Handler()

	// Warm every path: result cache, route-histogram map entries, the
	// recorder pool — so the measured iterations are steady-state.
	for _, h := range []http.Handler{bare, unsampled, sampled} {
		searchOnce(tb, h)
	}
	return bare, unsampled, sampled
}

// BenchmarkMiddlewareChain compares the warm search path served bare
// against the same path behind the full observability middleware, with
// tracing off (default) and on (sampled). The delta is the per-request
// cost of request ids, histograms and panic recovery.
func BenchmarkMiddlewareChain(b *testing.B) {
	bare, unsampled, sampled := benchHandlers(b)
	for _, bc := range []struct {
		name string
		h    http.Handler
	}{{"bare", bare}, {"instrumented", unsampled}, {"instrumented-sampled", sampled}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				searchOnce(b, bc.h)
			}
		})
	}
}

// allocsPerSearch measures steady-state allocations of one warm search
// through h.
func allocsPerSearch(tb testing.TB, h http.Handler) float64 {
	return testing.AllocsPerRun(200, func() { searchOnce(tb, h) })
}

// TestMiddlewareAllocBudget enforces the PR's allocation budget on the
// warm search path: the middleware chain (request id, histogram,
// recorder, panic guard) may add at most 2 heap allocations per request
// over the bare handler when tracing is not sampling.
func TestMiddlewareAllocBudget(t *testing.T) {
	if raceEnabled {
		// The race detector makes sync.Pool drop items at random, so the
		// pooled recorder is reallocated and the count flakes.
		t.Skip("allocation counts are not meaningful under -race")
	}
	bare, unsampled, _ := benchHandlers(t)
	base := allocsPerSearch(t, bare)
	instr := allocsPerSearch(t, unsampled)
	if added := instr - base; added > 2 {
		t.Fatalf("middleware adds %.1f allocs/request (bare %.1f, instrumented %.1f); budget is 2",
			added, base, instr)
	}
}
