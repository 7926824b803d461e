package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/repo"
)

// tryDo is the goroutine-safe bearer-auth request helper: failures come
// back as values, not testing.T calls.
func tryDo(ts *httptest.Server, method, path, secret string, out any) (int, error) {
	req, err := http.NewRequest(method, ts.URL+path, nil)
	if err != nil {
		return 0, err
	}
	if secret != "" {
		req.Header.Set("Authorization", "Bearer "+secret)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			return resp.StatusCode, fmt.Errorf("bad JSON %q: %w", body, err)
		}
	}
	return resp.StatusCode, nil
}

// bulkBatch marshals n zebrafish executions (EZ<start>..) as a JSON
// array, returning the array and the raw items.
func bulkBatch(t *testing.T, r *repo.Repository, specID string, start, n int) []byte {
	t.Helper()
	spec := r.Spec(specID)
	if spec == nil {
		t.Fatalf("spec %s not registered", specID)
	}
	items := make([]json.RawMessage, 0, n)
	for i := start; i < start+n; i++ {
		e, err := exec.NewRunner(spec, nil).Run(fmt.Sprintf("EZ%d", i), map[string]exec.Value{
			"x": exec.Value(fmt.Sprintf("tank-%d", i)),
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		raw, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, raw)
	}
	body, err := json.Marshal(items)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestBulkIngestEndToEnd: a writer posts a batch with one poisoned
// item and gets 200 with per-item accounting once the batch is applied —
// the bad item failed with its index, every other item landed and is
// immediately searchable. A reader may not post a batch, and the task
// routes of the old asynchronous surface are gone.
func TestBulkIngestEndToEnd(t *testing.T) {
	ts, _, r, _ := newAuthedServer(t)
	if err := r.AddSpec(zebrafishSpec(t, "zfish"), nil); err != nil {
		t.Fatalf("AddSpec: %v", err)
	}
	var items []json.RawMessage
	if err := json.Unmarshal(bulkBatch(t, r, "zfish", 0, 3), &items); err != nil {
		t.Fatal(err)
	}
	// Poison index 2: an unknown field must fail that item, not the batch.
	items = append(items[:2], append([]json.RawMessage{json.RawMessage(`{"bogus":true}`)}, items[2:]...)...)
	body, _ := json.Marshal(items)

	var res map[string]any
	if code := do(t, ts, "POST", "/api/v1/executions:bulk", writerSecret, body, &res); code != http.StatusOK {
		t.Fatalf("bulk ingest status = %d", code)
	}
	if res["added"] != float64(3) || res["failed"] != float64(1) {
		t.Fatalf("bulk result = %+v", res)
	}
	errs, _ := res["errors"].([]any)
	if len(errs) != 1 {
		t.Fatalf("bulk errors = %+v", errs)
	}
	if e0, _ := errs[0].(map[string]any); e0["index"] != float64(2) {
		t.Fatalf("poisoned item index = %+v", errs[0])
	}

	// The ingested executions are live: reader search finds the spec.
	var sr searchResp
	if code := do(t, ts, "GET", "/api/v1/search?q=zebrafish", adminSecret, nil, &sr); code != http.StatusOK {
		t.Fatalf("search after bulk: %d", code)
	}
	if len(sr.Hits) != 1 || sr.Hits[0].SpecID != "zfish" {
		t.Fatalf("bulk-ingested spec not searchable: %+v", sr.Hits)
	}
	if got := len(r.ExecutionIDs("zfish")); got != 3 {
		t.Fatalf("zfish executions = %d, want 3", got)
	}
	// Bulk items go through AddExecution, which stores runs of one shape over
	// one copy of their structure (repo.TestStoredExecutionsShareStructure).
	if got := r.Stats().Shapes["zfish"].ExecShapes; got != 1 {
		t.Fatalf("three runs of one spec were interned as %d shapes, want 1", got)
	}

	if code := do(t, ts, "POST", "/api/v1/executions:bulk", readerSecret, body, nil); code != http.StatusForbidden {
		t.Errorf("bulk ingest as reader = %d, want 403", code)
	}
	for _, probe := range []struct{ method, path string }{
		{"GET", "/api/v1/tasks"},
		{"GET", "/api/v1/tasks/t000001"},
		{"DELETE", "/api/v1/tasks/t000001"},
	} {
		if code := do(t, ts, probe.method, probe.path, writerSecret, nil, nil); code != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", probe.method, probe.path, code)
		}
	}
}

// TestBulkIngestRejectsBadEnvelope: a malformed array envelope is the
// caller's 400 — nothing is applied.
func TestBulkIngestRejectsBadEnvelope(t *testing.T) {
	ts, srv, r, _ := newAuthedServer(t)
	before := r.Stats().Executions
	for _, body := range []string{`{}`, `[]`, `[{"id":"x"}]trailing`, `not json`} {
		if code := do(t, ts, "POST", "/api/v1/executions:bulk", writerSecret, []byte(body), nil); code != http.StatusBadRequest {
			t.Errorf("bulk %q status = %d, want 400", body, code)
		}
	}
	if got, n := r.Stats().Executions, srv.mutations.Load(); got != before || n != 0 {
		t.Fatalf("bad envelopes applied something: executions %d -> %d, %d mutations", before, got, n)
	}
}

// TestCancelMidBulkIngestKeepsRepoConsistent: the request context is
// cancelled while a big batch is half-ingested, with readers hammering the
// repository the whole time. The batch stops between items and answers
// 503; the prefix ingested before the cancel stays live and
// duplicate-protected; re-posting the full batch afterwards ingests
// exactly the missing suffix.
func TestCancelMidBulkIngestKeepsRepoConsistent(t *testing.T) {
	ts, srv, r, _ := newAuthedServer(t)
	if err := r.AddSpec(zebrafishSpec(t, "zfish"), nil); err != nil {
		t.Fatalf("AddSpec: %v", err)
	}
	const batch, at = 150, 75
	body := bulkBatch(t, r, "zfish", 0, batch)

	// The handler parks before item at until its request context has been
	// cancelled: the cancel lands mid-batch, after exactly the items before
	// it.
	parked, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	open := func() { releaseOnce.Do(func() { close(release) }) }
	bulkItemHook = func(i int) {
		if i == at {
			close(parked)
			<-release
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/api/v1/executions:bulk", bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set("Authorization", "Bearer "+writerSecret)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeHTTP(rec, req)
	}()
	defer func() {
		// Release a handler a failed assertion left parked, and wait for it
		// before clearing the hook it reads.
		open()
		<-done
		bulkItemHook = nil
	}()

	// Concurrent readers churn search/specs/stats while the ingest runs
	// and while it is being cancelled.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			paths := []string{"/api/v1/search?q=zebrafish", "/api/v1/specs", "/api/v1/stats"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if code, err := tryDo(ts, "GET", paths[i%len(paths)], adminSecret, nil); err != nil || code != http.StatusOK {
					errc <- fmt.Errorf("reader %s: code %d err %v", paths[i%len(paths)], code, err)
					return
				}
			}
		}()
	}

	<-parked
	cancel()
	open()
	<-done
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("concurrent reader failed during cancelled ingest: %v", err)
	default:
	}
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), fmt.Sprintf("after %d of %d items", at+1, batch)) {
		t.Fatalf("cancelled batch answered %d %s", rec.Code, rec.Body)
	}

	// The parked item was already past the handler's cancellation check,
	// so it is the last one ingested.
	ingested := len(r.ExecutionIDs("zfish"))
	if ingested != at+1 {
		t.Fatalf("%d of %d executions ingested, want the %d up to the parked one", ingested, batch, at+1)
	}

	// Consistency proof: re-posting the identical batch ingests exactly
	// the suffix — the prefix is intact and duplicate-rejected.
	bulkItemHook = nil
	var res map[string]any
	if code := do(t, ts, "POST", "/api/v1/executions:bulk", writerSecret, body, &res); code != http.StatusOK {
		t.Fatalf("re-ingest status = %d", code)
	}
	if res["added"] != float64(batch-ingested) || res["failed"] != float64(ingested) {
		t.Fatalf("re-ingest result = %+v with %d pre-ingested", res, ingested)
	}
	if got := len(r.ExecutionIDs("zfish")); got != batch {
		t.Fatalf("final executions = %d, want %d", got, batch)
	}
}

// TestPolicyInstallStartsNoBackgroundWork: PUT /policy and PUT
// /generalization answer with the spec and nothing else, and fill nothing:
// from the install on, the fills counted are the reads' own, one each.
func TestPolicyInstallStartsNoBackgroundWork(t *testing.T) {
	ts, _, r, _ := newAuthedServer(t)
	const read = "/api/v1/provenance?spec=disease-susceptibility&exec=E1&item=d1"
	if code := do(t, ts, "GET", read, readerSecret, nil, nil); code != http.StatusOK {
		t.Fatalf("provenance before any install: %d", code)
	}
	for _, path := range []string{"/api/v1/policy", "/api/v1/generalization"} {
		before := r.Stats()
		var out map[string]any
		if code := do(t, ts, "PUT", path, writerSecret, []byte(`{"spec":"disease-susceptibility"}`), &out); code != http.StatusOK {
			t.Fatalf("PUT %s: %d", path, code)
		}
		if len(out) != 1 || out["spec"] != "disease-susceptibility" {
			t.Fatalf("PUT %s answered %v, want exactly the spec", path, out)
		}
		for i := int64(1); i <= 2; i++ {
			if code := do(t, ts, "GET", read, readerSecret, nil, nil); code != http.StatusOK {
				t.Fatalf("provenance after PUT %s: %d", path, code)
			}
			if got := r.Stats().MaskedCacheMisses - before.MaskedCacheMisses; got != i {
				t.Fatalf("read %d after PUT %s: %d fills since the install, want %d", i, path, got, i)
			}
		}
	}
}
