package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"provpriv/internal/obs"
	"provpriv/internal/tasks"
)

// newObsServer builds the fixture repository behind a server wrapped in
// the full observability middleware: every request sampled, slow
// threshold 1ns so every request is "slow" (exercising the slow-request
// path deterministically). Dev-mode header auth keeps alice an admin,
// so the debug endpoints are reachable without a token file.
func newObsServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	_, r, _ := newTestServer(t)
	srv := New(r)
	srv.SaveDir = t.TempDir()
	srv.Obs = obs.NewObserver(obs.NewMetrics(), nil, obs.NewTracer(64, 1, time.Nanosecond))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// findSpan walks a span tree depth-first for the first span with the
// given name.
func findSpan(spans []obs.SpanView, name string) *obs.SpanView {
	for i := range spans {
		if spans[i].Name == name {
			return &spans[i]
		}
		if s := findSpan(spans[i].Children, name); s != nil {
			return s
		}
	}
	return nil
}

// findTrace returns the newest trace with the given name.
func findTrace(traces []obs.TraceView, name string) *obs.TraceView {
	for i := range traces {
		if traces[i].Name == name {
			return &traces[i]
		}
	}
	return nil
}

type tracesResp struct {
	SlowThreshold string          `json:"slow_threshold"`
	Traces        []obs.TraceView `json:"traces"`
}

// TestDebugTracesSpanTree is the PR's acceptance criterion: a slow
// masked query produces a trace in GET /api/v1/debug/traces whose span
// tree shows the handler, the shard fan-out and the masked-cache fill
// (with its view/taint/mask children), each with a duration; and — since
// read paths never touch the storage backend — the storage spans appear
// on a traced POST /api/v1/save, the one request class that writes
// through the backend.
func TestDebugTracesSpanTree(t *testing.T) {
	ts, _ := newObsServer(t)
	// A masked all-executions query that returns provenance, the one return
	// that reads values: the first touch misses every cache, so the trace
	// records the fill work, not just a lookup.
	q := "/api/v1/query?spec=disease-susceptibility&q=MATCH+a+%3D+%22reformat%22+RETURN+provenance%28a%29"
	if code := get(t, ts, "carol", q, nil); code != http.StatusOK {
		t.Fatalf("query status = %d", code)
	}
	if code := do(t, ts, http.MethodPost, "/api/v1/save", "", nil, nil); code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated save status = %d", code)
	}
	// Save as alice (dev-mode header auth grants admin).
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/save", nil)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("X-Prov-User", "alice")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("POST save: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("save status = %d", resp.StatusCode)
	}

	var tr tracesResp
	if code := get(t, ts, "alice", "/api/v1/debug/traces", &tr); code != http.StatusOK {
		t.Fatalf("debug/traces status = %d", code)
	}
	if tr.SlowThreshold != time.Nanosecond.String() {
		t.Fatalf("slow_threshold = %q", tr.SlowThreshold)
	}

	qt := findTrace(tr.Traces, "GET /api/v1/query")
	if qt == nil {
		t.Fatalf("no query trace; got %d traces", len(tr.Traces))
	}
	if qt.ID == "" || qt.Status != http.StatusOK || qt.DurNs <= 0 {
		t.Fatalf("query trace = %+v", qt)
	}
	if !qt.Slow {
		t.Fatalf("query trace not marked slow at a 1ns threshold")
	}
	// The span tree: handler → binding phase, and handler → the window's
	// materialization → masked-cache fill → view/taint/mask children, each
	// with a recorded duration.
	handler := findSpan(qt.Spans, "handler")
	if handler == nil {
		t.Fatalf("no handler span: %+v", qt.Spans)
	}
	if findSpan(handler.Children, "query.fanout.match") == nil {
		t.Fatalf("no query.fanout.match under handler: %+v", handler)
	}
	fanout := findSpan(handler.Children, "query.fanout.materialize")
	if fanout == nil {
		t.Fatalf("no query.fanout.materialize under handler: %+v", handler)
	}
	fill := findSpan(fanout.Children, "cache.masked_fill")
	if fill == nil {
		t.Fatalf("no cache.masked_fill under fan-out: %+v", fanout)
	}
	for _, name := range []string{"view.collapse", "taint.analyze", "mask.apply"} {
		child := findSpan(fill.Children, name)
		if child == nil {
			t.Fatalf("no %s under cache.masked_fill: %+v", name, fill)
		}
		if child.DurNs < 0 {
			t.Fatalf("%s has negative duration", name)
		}
	}
	for _, s := range []*obs.SpanView{handler, fanout, fill} {
		if s.DurNs <= 0 {
			t.Fatalf("span %s has no duration", s.Name)
		}
	}

	st := findTrace(tr.Traces, "POST /api/v1/save")
	if st == nil {
		t.Fatalf("no save trace")
	}
	save := findSpan(st.Spans, "storage.save")
	if save == nil {
		t.Fatalf("no storage.save span: %+v", st.Spans)
	}
	if findSpan(save.Children, "storage.checkpoint") == nil && findSpan(save.Children, "storage.append") == nil {
		t.Fatalf("no shard write span under storage.save: %+v", save)
	}
	if commit := findSpan(save.Children, "storage.commit"); commit == nil {
		t.Fatalf("no storage.commit span under storage.save: %+v", save)
	}
}

// TestMetricsExpositionAndMonotonicity scrapes /metrics through the
// middleware, validates the exposition format with the strict parser,
// mutates the repository, and asserts every *_total series is monotone
// across the two scrapes (satellite: counters must never step backward
// over a mutation).
func TestMetricsExpositionAndMonotonicity(t *testing.T) {
	ts, _ := newObsServer(t)
	scrape := func() map[string]float64 {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read metrics: %v", err)
		}
		if err := obs.ValidateExposition(data); err != nil {
			t.Fatalf("invalid exposition:\n%v\n---\n%s", err, data)
		}
		series, err := obs.ExpositionSeries(data)
		if err != nil {
			t.Fatalf("parse series: %v", err)
		}
		return series
	}

	// Warm some routes first so labeled request series exist.
	get(t, ts, "alice", "/api/v1/search?q=omim", nil)
	before := scrape()

	// Mutations: a search (cache + request counters), an auth failure,
	// a policy replacement (mutations_total, cache purge + refill).
	get(t, ts, "alice", "/api/v1/search?q=omim", nil)
	get(t, ts, "", "/api/v1/search?q=omim", nil) // 401 → auth_failures_total
	body := []byte(`{"spec":"disease-susceptibility"}`)
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/api/v1/policy", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("X-Prov-User", "alice")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("PUT policy: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("policy status = %d", resp.StatusCode)
	}
	get(t, ts, "carol", "/api/v1/query?spec=disease-susceptibility&q=MATCH+a+%3D+%22reformat%22", nil)

	after := scrape()
	checked := 0
	for key, v := range before {
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if !strings.HasSuffix(name, "_total") {
			continue
		}
		now, ok := after[key]
		if !ok {
			t.Errorf("series %s disappeared between scrapes", key)
			continue
		}
		if now < v {
			t.Errorf("counter %s went backward: %v → %v", key, v, now)
		}
		checked++
	}
	if checked == 0 {
		t.Fatalf("no *_total series found to check")
	}
	// The mutations we made must be visible.
	if after["provpriv_mutations_total"] <= before["provpriv_mutations_total"] {
		t.Fatalf("mutations_total did not advance: %v → %v",
			before["provpriv_mutations_total"], after["provpriv_mutations_total"])
	}
	if after["provpriv_auth_failures_total"] <= before["provpriv_auth_failures_total"] {
		t.Fatalf("auth_failures_total did not advance")
	}
}

// TestProbes covers the healthz/readyz matrix: always-alive liveness; a
// readiness that flips with drain state, task-runtime drain, and the
// storage-binding requirement.
func TestProbes(t *testing.T) {
	ts, srv := newObsServer(t)
	probe := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", path, err)
		}
		return resp.StatusCode, body
	}
	if code, body := probe("/healthz"); code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz = %d %v", code, body)
	}
	if code, body := probe("/readyz"); code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("readyz = %d %v", code, body)
	}

	// Draining → not ready; healthz unaffected (the process is still up).
	srv.SetDraining(true)
	if code, body := probe("/readyz"); code != http.StatusServiceUnavailable || body["status"] != "not ready" {
		t.Fatalf("draining readyz = %d %v", code, body)
	}
	if code, _ := probe("/healthz"); code != http.StatusOK {
		t.Fatalf("draining healthz = %d", code)
	}
	srv.SetDraining(false)

	// A persisting server is not ready until a storage backend is bound.
	srv.RequireStorage = true
	code, body := probe("/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("unbound readyz = %d %v", code, body)
	}
	if err := srv.repo.Save(srv.SaveDir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if code, _ := probe("/readyz"); code != http.StatusOK {
		t.Fatalf("bound readyz = %d", code)
	}

	// A draining task runtime blocks readiness too.
	rt := tasks.New(1, 4)
	srv.Tasks = rt
	if code, _ := probe("/readyz"); code != http.StatusOK {
		t.Fatalf("live task runtime readyz = %d", code)
	}
	if err := rt.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if code, body := probe("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("drained-tasks readyz = %d %v", code, body)
	}
}

// TestFailEchoesRequestID: error envelopes produced behind the
// middleware carry the request id, matching the X-Request-Id response
// header — so a user can quote the id that logs and traces are keyed by.
func TestFailEchoesRequestID(t *testing.T) {
	ts, _ := newObsServer(t)
	resp, err := ts.Client().Get(ts.URL + "/api/v1/search?q=omim") // no principal → 401
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	rid := resp.Header.Get("X-Request-Id")
	if len(rid) != 32 {
		t.Fatalf("X-Request-Id = %q", rid)
	}
	var body struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if body.RequestID != rid {
		t.Fatalf("body request_id %q != header %q", body.RequestID, rid)
	}
	if body.Error == "" {
		t.Fatalf("empty error message")
	}
}

// TestPprofGating: the pprof surface requires BOTH the admin role and
// the operator opt-in. Disabled servers 404 even for admins
// (indistinguishable from absent); enabled servers still 403 readers.
func TestPprofGating(t *testing.T) {
	ts, srv, _, _ := newAuthedServer(t)
	fetch := func(secret string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/debug/pprof/", nil)
		if err != nil {
			t.Fatalf("NewRequest: %v", err)
		}
		if secret != "" {
			req.Header.Set("Authorization", "Bearer "+secret)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatalf("GET pprof: %v", err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if code := fetch(""); code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated pprof = %d", code)
	}
	if code := fetch(adminSecret); code != http.StatusNotFound {
		t.Fatalf("disabled pprof as admin = %d", code)
	}
	srv.EnablePprof = true
	if code := fetch(readerSecret); code != http.StatusForbidden {
		t.Fatalf("enabled pprof as reader = %d", code)
	}
	if code := fetch(adminSecret); code != http.StatusOK {
		t.Fatalf("enabled pprof as admin = %d", code)
	}
	// Traces are admin-gated the same way (but need no opt-in).
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/debug/traces", nil)
	req.Header.Set("Authorization", "Bearer "+readerSecret)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("GET traces: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("traces as reader = %d", resp.StatusCode)
	}
}
