package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"provpriv/internal/auth"
	"provpriv/internal/limit"
	"provpriv/internal/obs"
	"provpriv/internal/repo"
)

// newLimitedServer is newAuthedServer behind the full Handler() stack
// (admission middleware included) with the given limiter and rates. Two
// reader tokens let tests pit a bursting principal against an in-limit
// one: bucket keys are token names, so they are budgeted separately.
func newLimitedServer(t *testing.T, l *limit.Limiter, rates RoleRates) (*httptest.Server, *Server, *repo.Repository) {
	t.Helper()
	_, r, _ := newTestServer(t)
	a, err := auth.New([]*auth.Token{
		auth.NewToken("t-burst", "bob", auth.RoleReader, "s-burst"),
		auth.NewToken("t-steady", "bob", auth.RoleReader, "s-steady"),
		auth.NewToken("t-admin", "alice", auth.RoleAdmin, adminSecret),
	})
	if err != nil {
		t.Fatalf("auth.New: %v", err)
	}
	srv := New(r)
	srv.Auth = auth.NewStore(a)
	srv.Limiter = l
	srv.Rates = rates
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv, r
}

// TestRateLimitIsolation is the PR's acceptance scenario, run with
// -race: one principal bursts far past its budget and collects 429s
// with Retry-After while a concurrent principal staying inside the same
// role's budget sees zero rejections. Time is the limiter's injected
// clock, stepped only by the steady principal: its spacing is exactly
// 100 ms however the two goroutines interleave, and over the 1.5 s it
// spans the burster is owed at most 5 + 25 × 1.5 of its 100 requests.
func TestRateLimitIsolation(t *testing.T) {
	l := limit.New(limit.Config{})
	base := time.Now()
	var elapsed atomic.Int64
	l.SetClock(func() time.Time { return base.Add(time.Duration(elapsed.Load())) })
	ts, _, _ := newLimitedServer(t, l, RoleRates{Reader: limit.Rate{PerSec: 25, Burst: 5}})

	get := func(secret string) (int, string) {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/search?q=omim", nil)
		if err != nil {
			t.Error(err)
			return 0, ""
		}
		req.Header.Set("Authorization", "Bearer "+secret)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Error(err)
			return 0, ""
		}
		defer resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Retry-After")
	}

	var wg sync.WaitGroup
	var rejected, retryAfterMissing int
	wg.Add(1)
	go func() { // burster: 100 requests as fast as the loop turns
		defer wg.Done()
		for i := 0; i < 100; i++ {
			code, ra := get("s-burst")
			if code == http.StatusTooManyRequests {
				rejected++
				if ra == "" {
					retryAfterMissing++
				} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
					retryAfterMissing++
				}
			} else if code != http.StatusOK {
				t.Errorf("burster got %d, want 200 or 429", code)
			}
		}
	}()
	steadyRejected := 0
	wg.Add(1)
	go func() { // steady: 10/s, well under the 25/s budget
		defer wg.Done()
		for i := 0; i < 15; i++ {
			code, _ := get("s-steady")
			if code != http.StatusOK {
				steadyRejected++
				t.Errorf("steady principal got %d on request %d", code, i)
			}
			elapsed.Add(int64(100 * time.Millisecond))
		}
	}()
	wg.Wait()

	if rejected == 0 {
		t.Fatal("bursting principal was never rate limited")
	}
	if retryAfterMissing > 0 {
		t.Fatalf("%d of %d 429s lacked a positive integer Retry-After", retryAfterMissing, rejected)
	}
	if steadyRejected > 0 {
		t.Fatalf("in-limit principal saw %d rejections while the other principal burst", steadyRejected)
	}
}

// TestAdmissionDraining: through Handler(), a draining server sheds
// API requests with 503 (and no Retry-After — clients should fail
// over) while probes and metrics stay reachable.
func TestAdmissionDraining(t *testing.T) {
	ts, srv, _ := newLimitedServer(t, limit.New(limit.Config{}), RoleRates{})
	srv.SetDraining(true)

	resp, err := ts.Client().Get(ts.URL + "/api/v1/search?q=omim")
	if err != nil {
		t.Fatal(err)
	}
	var body errorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining API request = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "" {
		t.Fatal("draining 503 carries Retry-After; it should not (fail over, don't wait)")
	}
	if !strings.Contains(body.Error, "draining") {
		t.Fatalf("draining error = %q", body.Error)
	}

	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s while draining = %d, want 200 (probes are exempt from shedding)", path, resp.StatusCode)
		}
	}
	// /readyz reports not-ready itself, but is served, not shed.
	resp, err = ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", resp.StatusCode)
	}

	// The shed counter is visible on /metrics.
	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1<<20)
	n, _ := resp.Body.Read(data)
	resp.Body.Close()
	if !strings.Contains(string(data[:n]), "provpriv_shed_draining_total 1") {
		t.Fatal("shed_draining_total not incremented on /metrics")
	}
}

// TestAdmissionGlobalOverload: the global in-flight cap rejects with
// 503 while slots are held, and admits again after release.
func TestAdmissionGlobalOverload(t *testing.T) {
	_, r, _ := newTestServer(t)
	srv := New(r)
	srv.Limiter = limit.New(limit.Config{MaxInFlight: 1})

	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	h := srv.admission(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release // closed after the overload check; later requests pass through
		w.WriteHeader(http.StatusOK)
	}))

	done := make(chan struct{})
	go func() {
		defer close(done)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/api/v1/search", nil))
		if rr.Code != http.StatusOK {
			t.Errorf("held request finished %d", rr.Code)
		}
	}()
	<-entered

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/api/v1/search", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("request past global cap = %d, want 503", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "overloaded") {
		t.Fatalf("overload body = %q", rr.Body.String())
	}

	close(release)
	<-done
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rr.Code)
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/api/v1/search?q=omim&user=alice", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("request after release = %d, want 200", rr.Code)
	}
	if got := srv.Limiter.Stats().RejectedOverload; got != 1 {
		t.Fatalf("rejected_overload = %d, want 1", got)
	}
}

// TestLimiterExposition: the limit_* families appear on /metrics and
// the per-principal bucket rows (deliberately absent from /metrics —
// unbounded label cardinality) appear under /stats "limits".
func TestLimiterExposition(t *testing.T) {
	ts, _, _ := newLimitedServer(t,
		limit.New(limit.Config{MaxInFlight: 64}),
		RoleRates{Reader: limit.Rate{PerSec: 1, Burst: 2}},
	)
	get := func(secret, path string) *http.Response {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if secret != "" {
			req.Header.Set("Authorization", "Bearer "+secret)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// Two admitted, one rate-rejected for t-burst.
	for i := 0; i < 3; i++ {
		get("s-burst", "/api/v1/search?q=omim").Body.Close()
	}

	resp := get("", "/metrics")
	raw := make([]byte, 1<<20)
	n, _ := resp.Body.Read(raw)
	resp.Body.Close()
	metrics := string(raw[:n])
	for _, want := range []string{
		"provpriv_limit_allowed_total",
		"provpriv_limit_rejected_rate_total 1",
		"provpriv_limit_rejected_concurrency_total 0",
		"provpriv_limit_rejected_overload_total 0",
		"provpriv_limit_bucket_evictions_total 0",
		"provpriv_limit_in_flight",
		"provpriv_limit_principals",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, line := range strings.Split(metrics, "\n") {
		// auth_token_uses_total legitimately labels token names; the
		// limit_ families must stay aggregate-only.
		if strings.Contains(line, "limit_") && strings.Contains(line, "t-burst") {
			t.Errorf("/metrics leaks a per-principal limiter row: %q (those belong in /stats only)", line)
		}
	}

	resp = get("s-steady", "/api/v1/stats")
	var stats statsBody
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Limits == nil {
		t.Fatal("/stats has no limits block")
	}
	if stats.Limits.RejectedRate != 1 {
		t.Fatalf("stats rejected_rate = %d, want 1", stats.Limits.RejectedRate)
	}
	found := false
	for _, ps := range stats.Limits.PerPrincipal {
		if ps.Principal == "t-burst" {
			found = true
			if ps.RejectedRate != 1 || ps.Allowed != 2 {
				t.Fatalf("t-burst bucket = %+v, want allowed 2, rejected 1", ps)
			}
		}
	}
	if !found {
		t.Fatal("/stats limits has no t-burst bucket row")
	}
}

// limitedBenchHandlers builds the warm search path twice behind the
// full production stack (obs + admission): once without a limiter, once
// with one configured high enough to always admit. The delta between
// them is the limiter's per-request cost.
func limitedBenchHandlers(tb testing.TB) (unlimited, limited http.Handler) {
	r := benchFixture(tb)

	srvU := New(r)
	srvU.Obs = obs.NewObserver(obs.NewMetrics(), nil, obs.NewTracer(64, 0, time.Hour))
	unlimited = srvU.Handler()

	srvL := New(r)
	srvL.Obs = obs.NewObserver(obs.NewMetrics(), nil, obs.NewTracer(64, 0, time.Hour))
	srvL.Limiter = limit.New(limit.Config{MaxInFlight: 1 << 20, MaxInFlightPerPrincipal: 1 << 20})
	srvL.Rates = RoleRates{Admin: limit.Rate{PerSec: 1e9, Burst: 1e9}}
	limited = srvL.Handler()

	for _, h := range []http.Handler{unlimited, limited} {
		searchOnce(tb, h)
	}
	return unlimited, limited
}

// TestLimiterAllocBudget enforces the PR's allocation budget: the
// admission path (global gate + per-principal bucket, admitted) may add
// at most 1 heap allocation per request on the warm search path.
func TestLimiterAllocBudget(t *testing.T) {
	unlimited, limited := limitedBenchHandlers(t)
	base := allocsPerSearch(t, unlimited)
	lim := allocsPerSearch(t, limited)
	if added := lim - base; added > 1 {
		t.Fatalf("limiter adds %.1f allocs/request (unlimited %.1f, limited %.1f); budget is 1",
			added, base, lim)
	}
}
