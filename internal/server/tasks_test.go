package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"provpriv/internal/auth"
	"provpriv/internal/exec"
	"provpriv/internal/repo"
	"provpriv/internal/tasks"
)

// newTaskServer is newAuthedServer plus a live task runtime, installed
// before the listener starts so handlers never race the field write.
func newTaskServer(t *testing.T, workers, queue int) (*httptest.Server, *Server, *repo.Repository) {
	t.Helper()
	_, r, _ := newTestServer(t)
	a, err := auth.New([]*auth.Token{
		auth.NewToken("t-reader", "bob", auth.RoleReader, readerSecret),
		auth.NewToken("t-writer", "carol", auth.RoleWriter, writerSecret),
		auth.NewToken("t-admin", "alice", auth.RoleAdmin, adminSecret),
	})
	if err != nil {
		t.Fatalf("auth.New: %v", err)
	}
	srv := New(r)
	srv.Auth = auth.NewStore(a)
	rt := tasks.New(workers, queue)
	srv.Tasks = rt
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rt.Drain(ctx)
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv, r
}

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

// waitTask polls the task endpoint until the task is terminal and
// returns its final snapshot (decoded loosely).
func waitTask(t *testing.T, ts *httptest.Server, secret, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var snap map[string]any
		if code := do(t, ts, "GET", "/api/v1/tasks/"+id, secret, nil, &snap); code != http.StatusOK {
			t.Fatalf("get task %s: %d", id, code)
		}
		switch snap["state"] {
		case "succeeded", "failed", "canceled":
			return snap
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("task %s never reached a terminal state", id)
	return nil
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
// item, gets 202 + a task id, and the terminal task reports per-item
// accounting — the bad item failed with its index, every other item
// landed and is immediately searchable.
func TestBulkIngestEndToEnd(t *testing.T) {
	ts, _, r := newTaskServer(t, 2, 16)
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

	var acc struct {
		Task  string `json:"task"`
		Items int    `json:"items"`
	}
	if code := do(t, ts, "POST", "/api/v1/executions:bulk", writerSecret, body, &acc); code != http.StatusAccepted {
		t.Fatalf("bulk ingest status = %d", code)
	}
	if acc.Task == "" || acc.Items != 4 {
		t.Fatalf("bulk accept = %+v", acc)
	}

	snap := waitTask(t, ts, writerSecret, acc.Task)
	if snap["state"] != "succeeded" {
		t.Fatalf("bulk task = %+v", snap)
	}
	res, _ := snap["result"].(map[string]any)
	if res == nil || res["added"] != float64(3) || res["failed"] != float64(1) {
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
}

// TestBulkIngestRejectsBadEnvelope: a malformed array envelope is the
// caller's 400 — nothing is enqueued.
func TestBulkIngestRejectsBadEnvelope(t *testing.T) {
	ts, srv, _ := newTaskServer(t, 1, 4)
	for _, body := range []string{`{}`, `[]`, `[{"id":"x"}]trailing`, `not json`} {
		if code := do(t, ts, "POST", "/api/v1/executions:bulk", writerSecret, []byte(body), nil); code != http.StatusBadRequest {
			t.Errorf("bulk %q status = %d, want 400", body, code)
		}
	}
	if st := srv.Tasks.Stats(); st.Submitted != 0 {
		t.Fatalf("bad envelopes enqueued %d tasks", st.Submitted)
	}
}

// TestTaskEndpointsAuthzAndPagination: task introspection needs the
// writer role; the list pages newest-first; unknown ids are 404.
func TestTaskEndpointsAuthzAndPagination(t *testing.T) {
	ts, _, r := newTaskServer(t, 2, 16)
	if err := r.AddSpec(zebrafishSpec(t, "zfish"), nil); err != nil {
		t.Fatalf("AddSpec: %v", err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		var acc struct {
			Task string `json:"task"`
		}
		if code := do(t, ts, "POST", "/api/v1/executions:bulk", writerSecret, bulkBatch(t, r, "zfish", i*10, 2), &acc); code != http.StatusAccepted {
			t.Fatalf("bulk %d: %d", i, code)
		}
		ids = append(ids, acc.Task)
		waitTask(t, ts, writerSecret, acc.Task)
	}

	// Reader role: 403 on every task endpoint (and bulk ingest).
	for _, probe := range []struct{ method, path string }{
		{"GET", "/api/v1/tasks"},
		{"GET", "/api/v1/tasks/" + ids[0]},
		{"DELETE", "/api/v1/tasks/" + ids[0]},
		{"POST", "/api/v1/executions:bulk"},
	} {
		if code := do(t, ts, probe.method, probe.path, readerSecret, nil, nil); code != http.StatusForbidden {
			t.Errorf("%s %s as reader = %d, want 403", probe.method, probe.path, code)
		}
	}

	var list struct {
		Tasks []map[string]any `json:"tasks"`
		Total int              `json:"total"`
	}
	if code := do(t, ts, "GET", "/api/v1/tasks?limit=1&offset=1", writerSecret, nil, &list); code != http.StatusOK {
		t.Fatalf("list tasks: %d", code)
	}
	if list.Total != 3 || len(list.Tasks) != 1 {
		t.Fatalf("paged list = total %d, %d rows", list.Total, len(list.Tasks))
	}
	// Newest first: offset 1 is the second-newest submission.
	if got := list.Tasks[0]["id"]; got != ids[1] {
		t.Fatalf("page row = %v, want %s", got, ids[1])
	}
	if code := do(t, ts, "GET", "/api/v1/tasks/nope", writerSecret, nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown task = %d, want 404", code)
	}

	// Tasks counters surface in /stats and /metrics.
	var st statsBody
	if code := do(t, ts, "GET", "/api/v1/stats", adminSecret, nil, &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.Tasks == nil || st.Tasks.Succeeded != 3 {
		t.Fatalf("stats tasks = %+v", st.Tasks)
	}
	if v := scrapeMetric(t, ts, "provpriv_tasks_succeeded_total"); v != 3 {
		t.Fatalf("tasks_succeeded_total = %d, want 3", v)
	}
}

// TestTaskEndpointsWithoutRuntime: a server with no task runtime serves
// 503 on the whole async surface instead of panicking or hanging.
func TestTaskEndpointsWithoutRuntime(t *testing.T) {
	ts, _, _, _ := newAuthedServer(t)
	for _, probe := range []struct{ method, path, secret string }{
		{"GET", "/api/v1/tasks", writerSecret},
		{"GET", "/api/v1/tasks/t000001", writerSecret},
		{"DELETE", "/api/v1/tasks/t000001", writerSecret},
		{"POST", "/api/v1/executions:bulk", writerSecret},
	} {
		if code := do(t, ts, probe.method, probe.path, probe.secret, nil, nil); code != http.StatusServiceUnavailable {
			t.Errorf("%s %s without runtime = %d, want 503", probe.method, probe.path, code)
		}
	}
}

// TestCancelMidBulkIngestKeepsRepoConsistent: cancel lands while a big
// batch is half-ingested, with readers hammering the repository the
// whole time. The prefix ingested before the cancel stays live and
// duplicate-protected; re-posting the full batch afterwards ingests
// exactly the missing suffix.
func TestCancelMidBulkIngestKeepsRepoConsistent(t *testing.T) {
	ts, srv, r := newTaskServer(t, 1, 8)
	if err := r.AddSpec(zebrafishSpec(t, "zfish"), nil); err != nil {
		t.Fatalf("AddSpec: %v", err)
	}
	const batch, at = 150, 75
	body := bulkBatch(t, r, "zfish", 0, batch)

	// The single worker parks before item at until the DELETE has returned:
	// the cancel lands mid-batch, after exactly the items before it.
	parked, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	open := func() { releaseOnce.Do(func() { close(release) }) }
	bulkItemHook = func(i int) {
		if i == at {
			close(parked)
			<-release
		}
	}
	defer func() {
		// Release a worker a failed assertion left parked, and drain the
		// runtime before clearing the hook it reads.
		open()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Tasks.Drain(ctx)
		bulkItemHook = nil
	}()

	var acc struct {
		Task string `json:"task"`
	}
	if code := do(t, ts, "POST", "/api/v1/executions:bulk", writerSecret, body, &acc); code != http.StatusAccepted {
		t.Fatalf("bulk ingest status = %d", code)
	}

	// Concurrent readers churn search/specs/stats while the ingest runs
	// and while it is being canceled.
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
	var canceled map[string]any
	if code := do(t, ts, "DELETE", "/api/v1/tasks/"+acc.Task, writerSecret, nil, &canceled); code != http.StatusOK {
		t.Fatalf("cancel status = %d", code)
	}
	open()
	snap := waitTask(t, ts, writerSecret, acc.Task)
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("concurrent reader failed during canceled ingest: %v", err)
	default:
	}
	if snap["state"] != "canceled" {
		t.Fatalf("task after cancel = %v", snap["state"])
	}

	// The parked item was already past the worker's cancellation check, so
	// it is the last one ingested.
	ingested := len(r.ExecutionIDs("zfish"))
	if ingested != at+1 {
		t.Fatalf("%d of %d executions ingested, want the %d up to the parked one", ingested, batch, at+1)
	}

	// Consistency proof: re-posting the identical batch ingests exactly
	// the suffix — the prefix is intact and duplicate-rejected.
	bulkItemHook = nil
	var acc2 struct {
		Task string `json:"task"`
	}
	if code := do(t, ts, "POST", "/api/v1/executions:bulk", writerSecret, body, &acc2); code != http.StatusAccepted {
		t.Fatalf("re-ingest status = %d", code)
	}
	snap2 := waitTask(t, ts, writerSecret, acc2.Task)
	if snap2["state"] != "succeeded" {
		t.Fatalf("re-ingest task = %+v", snap2)
	}
	res, _ := snap2["result"].(map[string]any)
	if res == nil || res["added"] != float64(batch-ingested) || res["failed"] != float64(ingested) {
		t.Fatalf("re-ingest result = %+v with %d pre-ingested", res, ingested)
	}
	if got := len(r.ExecutionIDs("zfish")); got != batch {
		t.Fatalf("final executions = %d, want %d", got, batch)
	}
}

// TestPolicyInstallStartsNoBackgroundWork: with a live task runtime attached,
// PUT /policy and PUT /generalization answer with the spec and nothing else,
// submit no task, and leave the installed generation's cache empty: the next
// read of the spec is the one miss that fills it, the read after that a hit.
func TestPolicyInstallStartsNoBackgroundWork(t *testing.T) {
	ts, _, r := newTaskServer(t, 2, 8)
	const read = "/api/v1/provenance?spec=disease-susceptibility&exec=E1&item=d1"
	if code := do(t, ts, "GET", read, readerSecret, nil, nil); code != http.StatusOK {
		t.Fatalf("provenance before any install: %d", code)
	}
	submitted := scrapeMetric(t, ts, "provpriv_tasks_submitted_total")
	for _, path := range []string{"/api/v1/policy", "/api/v1/generalization"} {
		var out map[string]any
		if code := do(t, ts, "PUT", path, writerSecret, []byte(`{"spec":"disease-susceptibility"}`), &out); code != http.StatusOK {
			t.Fatalf("PUT %s: %d", path, code)
		}
		if len(out) != 1 || out["spec"] != "disease-susceptibility" {
			t.Fatalf("PUT %s answered %v, want exactly the spec", path, out)
		}
		if got := scrapeMetric(t, ts, "provpriv_tasks_submitted_total"); got != submitted {
			t.Fatalf("PUT %s submitted a task: %d -> %d", path, submitted, got)
		}
		before := r.Stats()
		for i, want := range [][2]int64{{0, 1}, {1, 1}} { // (hits, misses) since the install
			if code := do(t, ts, "GET", read, readerSecret, nil, nil); code != http.StatusOK {
				t.Fatalf("provenance after PUT %s: %d", path, code)
			}
			st := r.Stats()
			if got := [2]int64{st.MaskedCacheHits - before.MaskedCacheHits, st.MaskedCacheMisses - before.MaskedCacheMisses}; got != want {
				t.Fatalf("read %d after PUT %s: (hits, misses) since the install = %v, want %v", i+1, path, got, want)
			}
		}
	}
	var list struct {
		Total int `json:"total"`
	}
	if code := do(t, ts, "GET", "/api/v1/tasks", writerSecret, nil, &list); code != http.StatusOK || list.Total != 0 {
		t.Fatalf("task list after two installs: status %d, %d tasks, want none", code, list.Total)
	}
}
