package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"provpriv/internal/auditlog"
	"provpriv/internal/auth"
	"provpriv/internal/obs"
	"provpriv/internal/storage"
)

// newAuditedServer is newAuthedServer plus a durable audit log on its
// own backend directory and the obs middleware (so request ids thread
// into records), served through the full Handler() stack. Returns the
// audit dir so tests can reopen the log after a simulated restart.
func newAuditedServer(t *testing.T) (*httptest.Server, *Server, string) {
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
	dir := t.TempDir()
	b, err := storage.OpenFlat(dir)
	if err != nil {
		t.Fatal(err)
	}
	alog, err := auditlog.Open(b)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(r)
	srv.Auth = auth.NewStore(a)
	srv.Audit = alog
	srv.Obs = obs.NewObserver(obs.NewMetrics(), nil, obs.NewTracer(64, 0, time.Hour))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv, dir
}

// auditRecords fetches the audit window over the wire as admin.
func auditRecords(t *testing.T, ts *httptest.Server, query string) []auditlog.Record {
	t.Helper()
	var out struct {
		Enabled bool              `json:"enabled"`
		Records []auditlog.Record `json:"records"`
		Total   uint64            `json:"total"`
	}
	if code := do(t, ts, "GET", "/api/v1/audit"+query, adminSecret, nil, &out); code != http.StatusOK {
		t.Fatalf("GET /api/v1/audit = %d", code)
	}
	if !out.Enabled {
		t.Fatal("audit endpoint reports disabled on an audited server")
	}
	return out.Records
}

// TestAuditOneRecordPerMutation: each mutation request — success,
// role-denied, and malformed — emits exactly one record with the right
// identity, action, target and outcome; reads emit none.
func TestAuditOneRecordPerMutation(t *testing.T) {
	ts, srv, _ := newAuditedServer(t)

	spec := zebrafishSpec(t, "zfish-audit")
	specJSON, _ := json.Marshal(spec)
	body, _ := json.Marshal(map[string]json.RawMessage{"spec": specJSON})
	if code := do(t, ts, "POST", "/api/v1/specs", writerSecret, body, nil); code != http.StatusCreated {
		t.Fatalf("add spec = %d", code)
	}
	if code := do(t, ts, "POST", "/api/v1/specs", readerSecret, body, nil); code != http.StatusForbidden {
		t.Fatalf("reader add spec = %d, want 403", code)
	}
	if code := do(t, ts, "POST", "/api/v1/specs", writerSecret, []byte(`{"spec":`), nil); code != http.StatusBadRequest {
		t.Fatalf("malformed add spec = %d, want 400", code)
	}
	if code := do(t, ts, "POST", "/api/v1/specs", "wrong-secret", body, nil); code != http.StatusUnauthorized {
		t.Fatalf("bad token add spec = %d, want 401", code)
	}
	// Reads are not audited.
	if code := do(t, ts, "GET", "/api/v1/search?q=omim", readerSecret, nil, nil); code != http.StatusOK {
		t.Fatalf("search = %d", code)
	}

	if got := srv.Audit.Total(); got != 4 {
		t.Fatalf("audit total = %d, want 4 (one per mutation request, none for reads)", got)
	}
	recs := auditRecords(t, ts, "")
	if len(recs) != 4 {
		t.Fatalf("window = %d records, want 4", len(recs))
	}
	// Newest first: 401, 400, 403, 201.
	type want struct {
		principal, token, role, target, outcome string
		status                                  int
	}
	wants := []want{
		{"", "", "", "", "denied", 401},
		{"carol", "t-writer", "writer", "", "rejected", 400},
		{"bob", "t-reader", "reader", "", "denied", 403},
		{"carol", "t-writer", "writer", "zfish-audit", "ok", 201},
	}
	for i, w := range wants {
		r := recs[i]
		if r.Action != "spec.add" {
			t.Errorf("record %d action = %q", i, r.Action)
		}
		if r.Principal != w.principal || r.Token != w.token || r.Role != w.role {
			t.Errorf("record %d identity = %q/%q/%q, want %q/%q/%q",
				i, r.Principal, r.Token, r.Role, w.principal, w.token, w.role)
		}
		if r.Status != w.status || r.Outcome != w.outcome {
			t.Errorf("record %d status = %d/%q, want %d/%q", i, r.Status, r.Outcome, w.status, w.outcome)
		}
		if r.Target != w.target {
			t.Errorf("record %d target = %q, want %q", i, r.Target, w.target)
		}
		if r.Time.IsZero() {
			t.Errorf("record %d has no timestamp", i)
		}
	}
}

// TestAuditRequestIDThreading: the obs-assigned request id on the
// response is the one in the audit record, so an audit row joins to
// logs and traces.
func TestAuditRequestIDThreading(t *testing.T) {
	ts, _, _ := newAuditedServer(t)

	spec := zebrafishSpec(t, "zfish-rid")
	specJSON, _ := json.Marshal(spec)
	body, _ := json.Marshal(map[string]json.RawMessage{"spec": specJSON})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/specs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+writerSecret)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	rid := resp.Header.Get("X-Request-Id")
	if resp.StatusCode != http.StatusCreated || rid == "" {
		t.Fatalf("add spec = %d, X-Request-Id = %q", resp.StatusCode, rid)
	}

	recs := auditRecords(t, ts, "?action=spec.add")
	if len(recs) != 1 {
		t.Fatalf("spec.add records = %d, want 1", len(recs))
	}
	if recs[0].RequestID != rid {
		t.Fatalf("audit request id = %q, response header = %q", recs[0].RequestID, rid)
	}
}

// TestAuditSurvivesRestart: records appended before a shutdown are
// readable after reopening the log on the same directory, and sequence
// numbers continue rather than restart.
func TestAuditSurvivesRestart(t *testing.T) {
	ts, srv, dir := newAuditedServer(t)

	spec := zebrafishSpec(t, "zfish-dur")
	specJSON, _ := json.Marshal(spec)
	body, _ := json.Marshal(map[string]json.RawMessage{"spec": specJSON})
	if code := do(t, ts, "POST", "/api/v1/specs", writerSecret, body, nil); code != http.StatusCreated {
		t.Fatalf("add spec = %d", code)
	}
	if err := srv.Audit.Close(); err != nil {
		t.Fatal(err)
	}
	srv.Audit = nil // the old server must not touch the closed log

	b, err := storage.OpenFlat(dir)
	if err != nil {
		t.Fatal(err)
	}
	alog, err := auditlog.Open(b)
	if err != nil {
		t.Fatal(err)
	}
	defer alog.Close()
	recs, total := alog.Recent(auditlog.Query{})
	if total != 1 || len(recs) != 1 {
		t.Fatalf("after restart: total=%d window=%d, want 1/1", total, len(recs))
	}
	r := recs[0]
	if r.Action != "spec.add" || r.Principal != "carol" || r.Target != "zfish-dur" || r.Outcome != "ok" {
		t.Fatalf("restored record = %+v", r)
	}
	if err := alog.Append(auditlog.Record{Action: "spec.remove", Principal: "carol", Status: 200}); err != nil {
		t.Fatal(err)
	}
	if recs, _ := alog.Recent(auditlog.Query{}); recs[0].Seq != 2 {
		t.Fatalf("post-restart seq = %d, want 2", recs[0].Seq)
	}
}

// TestAuditEndpointFiltersAndAuthz: the query surface filters by
// principal and action, rejects bad limits, and is admin-only.
func TestAuditEndpointFiltersAndAuthz(t *testing.T) {
	ts, _, _ := newAuditedServer(t)

	spec := zebrafishSpec(t, "zfish-q")
	specJSON, _ := json.Marshal(spec)
	body, _ := json.Marshal(map[string]json.RawMessage{"spec": specJSON})
	if code := do(t, ts, "POST", "/api/v1/specs", writerSecret, body, nil); code != http.StatusCreated {
		t.Fatalf("add spec = %d", code)
	}
	if code := do(t, ts, "DELETE", "/api/v1/specs/zfish-q", writerSecret, nil, nil); code != http.StatusOK {
		t.Fatalf("remove spec = %d", code)
	}
	if code := do(t, ts, "POST", "/api/v1/save", readerSecret, nil, nil); code != http.StatusForbidden {
		t.Fatalf("reader save = %d, want 403", code)
	}

	if recs := auditRecords(t, ts, "?action=spec.remove"); len(recs) != 1 || recs[0].Target != "zfish-q" {
		t.Fatalf("action filter: %+v", recs)
	}
	if recs := auditRecords(t, ts, "?principal=bob"); len(recs) != 1 || recs[0].Action != "repo.save" {
		t.Fatalf("principal filter: %+v", recs)
	}
	if recs := auditRecords(t, ts, "?limit=1"); len(recs) != 1 {
		t.Fatalf("limit filter returned %d records", len(recs))
	}
	if code := do(t, ts, "GET", "/api/v1/audit?limit=bogus", adminSecret, nil, nil); code != http.StatusBadRequest {
		t.Fatalf("bad limit = %d, want 400", code)
	}
	for _, secret := range []string{readerSecret, writerSecret} {
		if code := do(t, ts, "GET", "/api/v1/audit", secret, nil, nil); code != http.StatusForbidden {
			t.Fatalf("non-admin audit read = %d, want 403", code)
		}
	}
}

// TestAuditDisabled: with no audit log configured the admin endpoint
// reports enabled=false instead of erroring, and mutations work.
func TestAuditDisabled(t *testing.T) {
	ts, _, _, _ := newAuthedServer(t)
	var out struct {
		Enabled bool              `json:"enabled"`
		Records []auditlog.Record `json:"records"`
	}
	if code := do(t, ts, "GET", "/api/v1/audit", adminSecret, nil, &out); code != http.StatusOK {
		t.Fatalf("audit on unaudited server = %d", code)
	}
	if out.Enabled || len(out.Records) != 0 {
		t.Fatalf("unaudited server reports %+v", out)
	}
}

// TestNullNodeOrItemIsABadRequest: an execution body holding a null node
// or a null item is the client's 400, with exactly one audit record each —
// it used to panic past the audit wrapper — and, as one item of a bulk
// batch, that item's failure: the batch still succeeds, stores the rest,
// and its one audit record says 200, written once every item was applied.
func TestNullNodeOrItemIsABadRequest(t *testing.T) {
	ts, srv, _ := newAuditedServer(t)
	if err := srv.repo.AddSpec(zebrafishSpec(t, "zfish-null"), nil); err != nil {
		t.Fatal(err)
	}
	nullItem := `{"id":"EN2","spec":"zfish-null","nodes":[],"edges":[],"items":{"d0":null}}`
	for _, body := range []string{`{"id":"EN1","spec":"zfish-null","nodes":[null],"edges":[],"items":{}}`, nullItem} {
		if code := do(t, ts, "POST", "/api/v1/executions", writerSecret, []byte(body), nil); code != http.StatusBadRequest {
			t.Fatalf("POST %s = %d, want 400", body, code)
		}
	}
	recs := auditRecords(t, ts, "")
	if len(recs) != 2 {
		t.Fatalf("audit window = %d records, want one per request", len(recs))
	}
	for i, r := range recs {
		if r.Action != "exec.add" || r.Status != http.StatusBadRequest || r.Outcome != "rejected" {
			t.Errorf("record %d = %s %d %q, want exec.add 400 rejected", i, r.Action, r.Status, r.Outcome)
		}
	}

	var items []json.RawMessage
	if err := json.Unmarshal(bulkBatch(t, srv.repo, "zfish-null", 0, 3), &items); err != nil {
		t.Fatal(err)
	}
	items = append(items[:1], append([]json.RawMessage{json.RawMessage(nullItem)}, items[1:]...)...)
	body, _ := json.Marshal(items)
	var res map[string]any
	if code := do(t, ts, "POST", "/api/v1/executions:bulk", writerSecret, body, &res); code != http.StatusOK {
		t.Fatalf("bulk ingest = %d, want 200", code)
	}
	errs, _ := res["errors"].([]any)
	if res["added"] != float64(3) || res["failed"] != float64(1) || len(errs) != 1 {
		t.Fatalf("bulk result = %+v", res)
	}
	if e0, _ := errs[0].(map[string]any); e0["index"] != float64(1) || e0["exec"] != "EN2" {
		t.Fatalf("failed item = %+v, want index 1, exec EN2", errs[0])
	}
	if got := srv.repo.ExecutionIDs("zfish-null"); len(got) != 3 {
		t.Fatalf("stored executions = %v, want the batch's other three", got)
	}
	recs = auditRecords(t, ts, "")
	if len(recs) != 3 || recs[0].Action != "exec.bulk" || recs[0].Status != http.StatusOK || recs[0].Outcome != "ok" {
		t.Fatalf("audit window after the batch = %+v, want an exec.bulk 200 ok record on top", recs)
	}
}
