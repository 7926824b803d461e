package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"provpriv/internal/auditlog"
	"provpriv/internal/exec"
	"provpriv/internal/obs"
	"provpriv/internal/privacy"
	"provpriv/internal/repo"
	"provpriv/internal/storage"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// newTestServer builds the paper's disease-susceptibility repository
// (snps owner-only, module M6 owner-only, per-level view grants) behind
// a live httptest server: the same fixture as the engine tests, now
// exercised end-to-end over HTTP.
func newTestServer(t *testing.T) (*httptest.Server, *repo.Repository, *exec.Execution) {
	t.Helper()
	r := repo.New()
	s := workflow.DiseaseSusceptibility()
	pol := privacy.NewPolicy(s.ID)
	pol.DataLevels["snps"] = privacy.Owner
	pol.ModuleLevels["M6"] = privacy.Owner
	pol.ViewGrants[privacy.Registered] = []string{"W2"}
	pol.ViewGrants[privacy.Analyst] = []string{"W3", "W4"}
	if err := r.AddSpec(s, pol); err != nil {
		t.Fatalf("AddSpec: %v", err)
	}
	e, err := exec.NewRunner(s, nil).Run("E1", map[string]exec.Value{
		"snps": "rs1", "ethnicity": "eth1", "lifestyle": "active",
		"family_history": "fh1", "symptoms": "none",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := r.AddExecution(e); err != nil {
		t.Fatalf("AddExecution: %v", err)
	}
	r.AddUser(privacy.User{Name: "alice", Level: privacy.Owner, Group: "owners"})
	r.AddUser(privacy.User{Name: "bob", Level: privacy.Public, Group: "public"})
	r.AddUser(privacy.User{Name: "carol", Level: privacy.Analyst, Group: "analysts"})
	ts := httptest.NewServer(New(r))
	t.Cleanup(ts.Close)
	return ts, r, e
}

// get performs a GET as the given user and decodes the JSON body.
func get(t *testing.T, ts *httptest.Server, user, path string, out any) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	if user != "" {
		req.Header.Set("X-Prov-User", user)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: Content-Type = %q", path, ct)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", path, body, err)
		}
	}
	return resp.StatusCode
}

// tryGet is the goroutine-safe variant of get: it reports failures as
// values instead of calling into testing.T.
func tryGet(ts *httptest.Server, user, path string, out any) (int, error) {
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		return 0, err
	}
	if user != "" {
		req.Header.Set("X-Prov-User", user)
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

type searchResp struct {
	Query string      `json:"query"`
	Hits  []searchHit `json:"hits"`
}

func TestSearchHitAndMiss(t *testing.T) {
	ts, _, _ := newTestServer(t)
	// Hit: the owner finds the OMIM module.
	var hit searchResp
	if code := get(t, ts, "alice", "/api/v1/search?q=omim", &hit); code != http.StatusOK {
		t.Fatalf("search hit status = %d", code)
	}
	if len(hit.Hits) != 1 || hit.Hits[0].SpecID != "disease-susceptibility" {
		t.Fatalf("hits = %+v", hit.Hits)
	}
	if hit.Hits[0].Score <= 0 || len(hit.Hits[0].Matches) == 0 {
		t.Fatalf("degenerate hit: %+v", hit.Hits[0])
	}
	// Miss: a vocabulary word matching nothing yields an empty list,
	// not an error.
	var miss searchResp
	if code := get(t, ts, "alice", "/api/v1/search?q=zebrafish", &miss); code != http.StatusOK {
		t.Fatalf("search miss status = %d", code)
	}
	if len(miss.Hits) != 0 {
		t.Fatalf("miss hits = %+v", miss.Hits)
	}
	// Module privacy through the wire: the same query as public finds
	// nothing (M6 is owner-only).
	var pub searchResp
	if code := get(t, ts, "bob", "/api/v1/search?q=omim", &pub); code != http.StatusOK {
		t.Fatalf("public search status = %d", code)
	}
	if len(pub.Hits) != 0 {
		t.Fatalf("module privacy leaked over HTTP: %+v", pub.Hits)
	}
	// Bad request: empty query.
	if code := get(t, ts, "alice", "/api/v1/search?q=", nil); code != http.StatusBadRequest {
		t.Fatalf("empty query status = %d", code)
	}
}

func TestProvenanceRetrievalAndMasking(t *testing.T) {
	ts, _, e := newTestServer(t)
	var progID, internalID string
	for id, it := range e.Items {
		switch it.Attr {
		case "prognosis":
			progID = id
		case "snp_set":
			internalID = id
		}
	}
	var body struct {
		Provenance *exec.Execution `json:"provenance"`
	}
	path := fmt.Sprintf("/api/v1/provenance?spec=disease-susceptibility&exec=E1&item=%s", progID)
	if code := get(t, ts, "alice", path, &body); code != http.StatusOK {
		t.Fatalf("owner provenance status = %d", code)
	}
	if body.Provenance == nil || len(body.Provenance.Nodes) < 5 {
		t.Fatalf("owner provenance too small: %+v", body.Provenance)
	}
	// The public user gets the collapsed view with snps masked.
	var pub struct {
		Provenance *exec.Execution `json:"provenance"`
	}
	if code := get(t, ts, "bob", path, &pub); code != http.StatusOK {
		t.Fatalf("public provenance status = %d", code)
	}
	for _, it := range pub.Provenance.Items {
		if it.Attr == "snps" && !it.Redacted {
			t.Fatal("protected snps value served unredacted over HTTP")
		}
	}
	// Unknown item → 403, same as a hidden one: the engine deliberately
	// does not distinguish "absent" from "not visible at your level",
	// so the API cannot be used as an existence oracle.
	if code := get(t, ts, "alice", "/api/v1/provenance?spec=disease-susceptibility&exec=E1&item=nope", nil); code != http.StatusForbidden {
		t.Fatalf("unknown item status = %d", code)
	}
	_ = internalID
}

// TestPolicyDenialLowPrivilege is the policy-denial e2e path: an item
// that exists but is outside the public user's access view answers 403,
// and the error body names no value.
func TestPolicyDenialLowPrivilege(t *testing.T) {
	ts, _, e := newTestServer(t)
	var internalID string
	for id, it := range e.Items {
		if it.Attr == "snp_set" {
			internalID = id
		}
	}
	path := fmt.Sprintf("/api/v1/provenance?spec=disease-susceptibility&exec=E1&item=%s", internalID)
	var errBody errorBody
	if code := get(t, ts, "bob", path, &errBody); code != http.StatusForbidden {
		t.Fatalf("denial status = %d, want 403", code)
	}
	if errBody.Error == "" {
		t.Fatal("empty denial error body")
	}
	// The same item is retrievable by the owner — the denial is policy,
	// not absence.
	if code := get(t, ts, "alice", path, nil); code != http.StatusOK {
		t.Fatalf("owner status for same item = %d", code)
	}
}

func TestAuthRequired(t *testing.T) {
	ts, _, _ := newTestServer(t)
	if code := get(t, ts, "", "/api/v1/stats", nil); code != http.StatusUnauthorized {
		t.Fatalf("missing user status = %d", code)
	}
	if code := get(t, ts, "mallory", "/api/v1/stats", nil); code != http.StatusUnauthorized {
		t.Fatalf("unknown user status = %d", code)
	}
	// The user query parameter works as a header substitute (curl
	// convenience documented in the README).
	if code := get(t, ts, "", "/api/v1/stats?user=alice", nil); code != http.StatusOK {
		t.Fatalf("user param status = %d", code)
	}
}

func TestQueryAndReachEndpoints(t *testing.T) {
	ts, _, _ := newTestServer(t)
	var q struct {
		Answers []queryAnswer `json:"answers"`
	}
	path := `/api/v1/query?spec=disease-susceptibility&exec=E1&q=` +
		`MATCH%20a%20%3D%20%22expand%20snp%22%2C%20b%20%3D%20%22query%20omim%22%20WHERE%20a%20~%3E%20b`
	if code := get(t, ts, "alice", path, &q); code != http.StatusOK {
		t.Fatalf("query status = %d", code)
	}
	if len(q.Answers) != 1 || len(q.Answers[0].Bindings) != 1 {
		t.Fatalf("answers = %+v", q.Answers)
	}
	// QueryAll form (no exec parameter).
	var all struct {
		Answers []queryAnswer `json:"answers"`
	}
	if code := get(t, ts, "alice", "/api/v1/query?spec=disease-susceptibility&q=MATCH%20a%20%3D%20%22reformat%22", &all); code != http.StatusOK {
		t.Fatalf("query-all status = %d", code)
	}
	if len(all.Answers) != 1 {
		t.Fatalf("query-all answers = %+v", all.Answers)
	}
	// Unknown spec → 404; malformed query → 400.
	if code := get(t, ts, "alice", "/api/v1/query?spec=nope&exec=E1&q=MATCH%20a%20%3D%20%22x%22", nil); code != http.StatusNotFound {
		t.Fatalf("unknown spec status = %d", code)
	}
	if code := get(t, ts, "alice", "/api/v1/query?spec=disease-susceptibility&exec=E1&q=garbage", nil); code != http.StatusBadRequest {
		t.Fatalf("garbage query status = %d", code)
	}
	// zoom without exec is a contradiction, not a silent QueryAll.
	if code := get(t, ts, "alice", "/api/v1/query?spec=disease-susceptibility&q=MATCH%20a%20%3D%20%22reformat%22&zoom=1", nil); code != http.StatusBadRequest {
		t.Fatalf("zoom without exec status = %d", code)
	}

	var reach struct {
		Reaches bool `json:"reaches"`
	}
	if code := get(t, ts, "alice", "/api/v1/reach?spec=disease-susceptibility&from=M12&to=M11", &reach); code != http.StatusOK {
		t.Fatalf("reach status = %d", code)
	}
	if !reach.Reaches {
		t.Fatal("M12 -> M11 should reach for owner")
	}
}

// TestZoomParameterIsABoolean: zoom is parsed, not tested for presence —
// zoom=0 and zoom=false answer exactly what no zoom answers, with or
// without an exec; a value that is not a boolean answers 400.
func TestZoomParameterIsABoolean(t *testing.T) {
	ts, _, _ := newTestServer(t)
	body := func(path string) string {
		t.Helper()
		var raw json.RawMessage
		if code := get(t, ts, "bob", path, &raw); code != http.StatusOK {
			t.Fatalf("%s: status %d", path, code)
		}
		return string(raw)
	}
	q := "/api/v1/query?spec=disease-susceptibility&q=" + url.QueryEscape(`MATCH a = "reformat" RETURN nodes`)
	for _, base := range []string{q + "&exec=E1", q} {
		direct := body(base)
		for _, off := range []string{"0", "false", "F"} {
			if got := body(base + "&zoom=" + off); got != direct {
				t.Fatalf("%s&zoom=%s answered %s, without zoom %s", base, off, got, direct)
			}
		}
		if code := get(t, ts, "bob", base+"&zoom=maybe", nil); code != http.StatusBadRequest {
			t.Fatalf("%s&zoom=maybe: status %d, want 400", base, code)
		}
	}
	if zoomed := body(q + "&exec=E1&zoom=true"); !strings.Contains(zoomed, `"zoom_steps"`) {
		t.Fatalf("zoom=true answered %s: not the zoom-out path", zoomed)
	}
}

func TestSpecsAndStats(t *testing.T) {
	ts, _, _ := newTestServer(t)
	var specs struct {
		Specs []specInfo `json:"specs"`
	}
	if code := get(t, ts, "carol", "/api/v1/specs", &specs); code != http.StatusOK {
		t.Fatalf("specs status = %d", code)
	}
	if len(specs.Specs) != 1 || specs.Specs[0].ID != "disease-susceptibility" ||
		len(specs.Specs[0].Executions) != 1 {
		t.Fatalf("specs = %+v", specs.Specs)
	}
	var st statsBody
	if code := get(t, ts, "carol", "/api/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if st.Specs != 1 || st.Executions != 1 || st.Users != 3 || st.IndexTerms == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestParallelClients drives the full stack (HTTP transport + sharded
// engine) from many concurrent clients mixing search, provenance and
// query traffic at different privilege levels; run under -race this is
// the end-to-end concurrency gate of the ISSUE.
func TestParallelClients(t *testing.T) {
	ts, _, e := newTestServer(t)
	var progID string
	for id, it := range e.Items {
		if it.Attr == "prognosis" {
			progID = id
		}
	}
	users := []string{"alice", "bob", "carol"}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			user := users[c%len(users)]
			for i := 0; i < 20; i++ {
				var sr searchResp
				if code, err := tryGet(ts, user, "/api/v1/search?q=database", &sr); err != nil || code != http.StatusOK {
					t.Errorf("client %d: search status %d err %v", c, code, err)
					return
				}
				path := fmt.Sprintf("/api/v1/provenance?spec=disease-susceptibility&exec=E1&item=%s", progID)
				if code, err := tryGet(ts, user, path, nil); err != nil || code != http.StatusOK {
					t.Errorf("client %d: provenance status %d err %v", c, code, err)
					return
				}
				if code, err := tryGet(ts, user, "/api/v1/stats", nil); err != nil || code != http.StatusOK {
					t.Errorf("client %d: stats status %d err %v", c, code, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestSearchPagination drives limit/offset through the search endpoint:
// windows must tile the full result list and report the pre-pagination
// total.
func TestSearchPagination(t *testing.T) {
	ts, r, _ := newTestServer(t)
	// Register more searchable specs so there is something to paginate.
	for i := 0; i < 4; i++ {
		s, err := workload.RandomSpec(workload.SpecConfig{
			Seed: int64(i), ID: fmt.Sprintf("p%d", i), Depth: 3, Fanout: 2, Chain: 4, SkipProb: 0.2,
		})
		if err != nil {
			t.Fatalf("RandomSpec: %v", err)
		}
		if err := r.AddSpec(s, nil); err != nil {
			t.Fatalf("AddSpec: %v", err)
		}
	}
	var full struct {
		Hits  []json.RawMessage `json:"hits"`
		Total int               `json:"total"`
	}
	if code := get(t, ts, "alice", "/api/v1/search?q=query", &full); code != http.StatusOK {
		t.Fatalf("full search: %d", code)
	}
	if full.Total != len(full.Hits) || full.Total < 2 {
		t.Fatalf("need >=2 hits to paginate, total=%d hits=%d", full.Total, len(full.Hits))
	}
	var paged struct {
		Hits   []json.RawMessage `json:"hits"`
		Total  int               `json:"total"`
		Offset int               `json:"offset"`
	}
	var seen []string
	for off := 0; off < full.Total; off++ {
		path := fmt.Sprintf("/api/v1/search?q=query&limit=1&offset=%d", off)
		if code := get(t, ts, "alice", path, &paged); code != http.StatusOK {
			t.Fatalf("paged search: %d", code)
		}
		if len(paged.Hits) != 1 || paged.Total != full.Total || paged.Offset != off {
			t.Fatalf("page %d = %d hits, total %d, offset %d", off, len(paged.Hits), paged.Total, paged.Offset)
		}
		seen = append(seen, string(paged.Hits[0]))
	}
	for i, h := range seen {
		if h != string(full.Hits[i]) {
			t.Fatalf("page %d differs from full listing", i)
		}
	}
	// Offset past the end: empty page, total intact.
	if code := get(t, ts, "alice", fmt.Sprintf("/api/v1/search?q=query&offset=%d", full.Total+5), &paged); code != http.StatusOK {
		t.Fatalf("past-end page: %d", code)
	}
	if len(paged.Hits) != 0 || paged.Total != full.Total {
		t.Fatalf("past-end page = %d hits, total %d", len(paged.Hits), paged.Total)
	}
	// Bad parameters are 400s.
	for _, bad := range []string{"limit=-1", "limit=x", "offset=-2"} {
		if code := get(t, ts, "alice", "/api/v1/search?q=query&"+bad, nil); code != http.StatusBadRequest {
			t.Fatalf("%s accepted: %d", bad, code)
		}
	}
}

// TestQueryPagination paginates the all-executions query endpoint.
func TestQueryPagination(t *testing.T) {
	ts, r, _ := newTestServer(t)
	s := r.Spec("disease-susceptibility")
	for i := 2; i <= 4; i++ {
		e, err := exec.NewRunner(s, nil).Run(fmt.Sprintf("E%d", i), map[string]exec.Value{
			"snps": exec.Value(fmt.Sprintf("rs%d", i)), "ethnicity": "e", "lifestyle": "l",
			"family_history": "f", "symptoms": "s",
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if err := r.AddExecution(e); err != nil {
			t.Fatalf("AddExecution: %v", err)
		}
	}
	q := "/api/v1/query?spec=disease-susceptibility&q=" + "MATCH+a+%3D+%22reformat%22"
	var full struct {
		Answers []struct {
			Execution string `json:"execution"`
		} `json:"answers"`
		Total int `json:"total"`
	}
	if code := get(t, ts, "alice", q, &full); code != http.StatusOK {
		t.Fatalf("query: %d", code)
	}
	if full.Total != 4 || len(full.Answers) != 4 {
		t.Fatalf("expected 4 answers, got total=%d len=%d", full.Total, len(full.Answers))
	}
	var paged struct {
		Answers []struct {
			Execution string `json:"execution"`
		} `json:"answers"`
		Total int `json:"total"`
	}
	if code := get(t, ts, "alice", q+"&limit=2&offset=1", &paged); code != http.StatusOK {
		t.Fatalf("paged query: %d", code)
	}
	if paged.Total != 4 || len(paged.Answers) != 2 {
		t.Fatalf("paged = total %d, %d answers", paged.Total, len(paged.Answers))
	}
	if paged.Answers[0].Execution != full.Answers[1].Execution {
		t.Fatalf("offset window wrong: %s vs %s", paged.Answers[0].Execution, full.Answers[1].Execution)
	}
}

// TestMetricsEndpoint scrapes /metrics (unauthenticated) and checks the
// Prometheus exposition carries the repository and derived-state
// counters.
func TestMetricsEndpoint(t *testing.T) {
	ts, _, e := newTestServer(t)
	// Two audited (rejected) mutations, one after the other: two records
	// in two flushes, each Append call timed.
	ab, err := storage.OpenFlat(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	alog, err := auditlog.Open(ab)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { alog.Close() })
	ts.Config.Handler.(*Server).Audit = alog
	for i := 0; i < 2; i++ {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/specs", strings.NewReader(`{"spec":`))
		req.Header.Set("X-Prov-User", "alice")
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed add spec = %d, want 400", resp.StatusCode)
		}
	}
	// Generate some cache traffic so counters move: two searches, and one
	// execution read at two levels (one taint set, two masked snapshots).
	for i := 0; i < 2; i++ {
		if code := get(t, ts, "alice", "/api/v1/search?q=database", nil); code != http.StatusOK {
			t.Fatalf("search: %d", code)
		}
	}
	for _, user := range []string{"alice", "bob"} {
		// Returning provenance, the query fills this level's masked snapshot.
		if code := get(t, ts, user, "/api/v1/query?spec=disease-susceptibility&exec="+e.ID+"&q=MATCH%20a%20%3D%20%22query%22%20RETURN%20provenance(a)", nil); code != http.StatusOK {
			t.Fatalf("query as %s: %d", user, code)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, text)
	}
	for _, metric := range []string{
		"provpriv_audit_records_total 2",
		"provpriv_audit_flushes_total 2",
		"provpriv_audit_append_seconds_count 2",
		`provpriv_audit_append_seconds_bucket{le="+Inf"} 2`,
		"provpriv_specs 1",
		"provpriv_index_segments 1",
		"provpriv_index_postings",
		"provpriv_index_snapshot_swaps_total",
		"provpriv_masked_exec_cache_entries 2",
		"provpriv_exec_shapes 1",
		"provpriv_view_plans 2",
	} {
		if !strings.Contains(text, metric) {
			t.Fatalf("metrics missing %q:\n%s", metric, text)
		}
	}
	for _, gone := range []string{"provpriv_result_cache_", "provpriv_taint_cache_"} {
		if strings.Contains(text, gone) {
			t.Fatalf("metrics still carry a %s* series:\n%s", gone, text)
		}
	}
	// /stats carries the same counters as JSON.
	var st struct {
		IndexSegments int                       `json:"index_segments"`
		IndexSwaps    int64                     `json:"index_swaps"`
		Shapes        map[string]repo.ShapeStat `json:"shapes"`
	}
	if code := get(t, ts, "alice", "/api/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.IndexSegments != 1 || st.IndexSwaps == 0 {
		t.Fatalf("stats counters: %+v", st)
	}
	if got := st.Shapes["disease-susceptibility"]; got != (repo.ShapeStat{ExecShapes: 1, ViewPlans: 2}) {
		t.Fatalf("stats shapes: %+v, want one shape under two access views", st.Shapes)
	}
}

// scrapeMetric fetches /metrics and returns the value of one
// single-sample metric line (name + space + integer).
func scrapeMetric(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		var v int64
		if n, _ := fmt.Sscanf(line, name+" %d", &v); n == 1 {
			return v
		}
	}
	t.Fatalf("metric %q not in /metrics:\n%s", name, body)
	return 0
}

// TestProvenanceTaintEscapeHatch: there is none. A public user's
// provenance carries no embedded protected value, taint=off is refused
// outright (no unmasked path is served, and silently serving taint-on
// would mislead whoever asked), and any other value is a bad request.
func TestProvenanceTaintEscapeHatch(t *testing.T) {
	ts, _, e := newTestServer(t)
	var progID string
	for id, it := range e.Items {
		if it.Attr == "prognosis" {
			progID = id
		}
	}
	path := fmt.Sprintf("/api/v1/provenance?spec=disease-susceptibility&exec=E1&item=%s", progID)
	var body struct {
		Provenance *exec.Execution `json:"provenance"`
	}
	if code := get(t, ts, "bob", path, &body); code != http.StatusOK {
		t.Fatalf("provenance status = %d", code)
	}
	for id, it := range body.Provenance.Items {
		if strings.Contains(string(it.Value), "rs1") {
			t.Errorf("taint-masked provenance item %s embeds rs1: %q", id, it.Value)
		}
	}
	if code := get(t, ts, "bob", path+"&taint=off", nil); code != http.StatusForbidden {
		t.Fatalf("taint=off = %d, want 403", code)
	}
	if code := get(t, ts, "bob", path+"&taint=maybe", nil); code != http.StatusBadRequest {
		t.Fatalf("taint=maybe status = %d, want 400", code)
	}
}

// TestTaintMetricsMonotone: the taint_* counters appear in /metrics,
// only grow (monotone *_total gauges like the PR 2 counters), and the
// per-shard masked-snapshot cache hit/miss breakdown shows up in /stats,
// which no longer names a taint-set cache.
func TestTaintMetricsMonotone(t *testing.T) {
	ts, _, e := newTestServer(t)
	var progID string
	for id, it := range e.Items {
		if it.Attr == "prognosis" {
			progID = id
		}
	}
	path := fmt.Sprintf("/api/v1/provenance?spec=disease-susceptibility&exec=E1&item=%s", progID)
	if code := get(t, ts, "bob", path, nil); code != http.StatusOK {
		t.Fatalf("provenance: %d", code)
	}
	rewritten1 := scrapeMetric(t, ts, "provpriv_taint_items_rewritten_total")
	redacted1 := scrapeMetric(t, ts, "provpriv_taint_items_redacted_total")
	if rewritten1 == 0 {
		t.Fatal("public provenance of prognosis rewrote nothing")
	}
	// More traffic: every counter must be non-decreasing.
	for i := 0; i < 3; i++ {
		if code := get(t, ts, "bob", path, nil); code != http.StatusOK {
			t.Fatalf("provenance #%d: %d", i, code)
		}
	}
	rewritten2 := scrapeMetric(t, ts, "provpriv_taint_items_rewritten_total")
	redacted2 := scrapeMetric(t, ts, "provpriv_taint_items_redacted_total")
	maskedHits := scrapeMetric(t, ts, "provpriv_masked_exec_cache_hits_total")
	maskedMisses := scrapeMetric(t, ts, "provpriv_masked_exec_cache_misses_total")
	if rewritten2 < rewritten1 || redacted2 < redacted1 {
		t.Fatalf("taint counters regressed: rewritten %d→%d redacted %d→%d",
			rewritten1, rewritten2, redacted1, redacted2)
	}
	if rewritten2 == rewritten1 {
		t.Fatal("repeat provenance did not replay the masking report")
	}
	// Repeat provenance serves the cached masked snapshot: the execution
	// is analysed only on the snapshot fill, and the masked-exec cache
	// takes every warm request.
	if maskedMisses == 0 {
		t.Fatal("first provenance did not miss the masked-exec cache")
	}
	if maskedHits == 0 {
		t.Fatal("repeat provenance did not hit the masked-exec cache")
	}

	var st struct {
		MaskedCacheHits   int64                           `json:"masked_exec_cache_hits"`
		MaskedCacheMisses int64                           `json:"masked_exec_cache_misses"`
		MaskedCache       map[string]repo.MaskedCacheStat `json:"masked_exec_cache"`
	}
	if code := get(t, ts, "alice", "/api/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.MaskedCacheHits != maskedHits || st.MaskedCacheMisses != maskedMisses {
		t.Fatalf("masked stats/metrics disagree: hits %d vs %d, misses %d vs %d",
			st.MaskedCacheHits, maskedHits, st.MaskedCacheMisses, maskedMisses)
	}
	msh, ok := st.MaskedCache["disease-susceptibility"]
	if !ok || msh.Hits+msh.Misses == 0 || msh.Entries != 1 {
		t.Fatalf("per-shard masked cache stats missing: %+v", st.MaskedCache)
	}
	var raw map[string]json.RawMessage
	if code := get(t, ts, "alice", "/api/v1/stats", &raw); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	for _, gone := range []string{"taint_cache_hits", "taint_cache_misses", "taint_cache"} {
		if _, ok := raw[gone]; ok {
			t.Fatalf("/stats still carries %q", gone)
		}
	}
}

// TestStorageMetricsExported: a server started with a measured storage
// backend surfaces backend counters in /metrics and /stats, and a
// wire-triggered save moves them.
func TestStorageMetricsExported(t *testing.T) {
	dir := t.TempDir()
	r := repo.New()
	s := workflow.DiseaseSusceptibility()
	if err := r.AddSpec(s, nil); err != nil {
		t.Fatalf("AddSpec: %v", err)
	}
	r.AddUser(privacy.User{Name: "alice", Level: privacy.Owner, Group: "owners"})
	b, err := storage.OpenFlat(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := storage.NewMeasure(b)
	if err := r.BindStorage(m, dir); err != nil {
		t.Fatal(err)
	}
	srv := New(r)
	srv.Store = m
	srv.SaveDir = dir
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { r.CloseStorage() })

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/save", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Prov-User", "alice")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("save: %d", resp.StatusCode)
	}

	if v := scrapeMetric(t, ts, "provpriv_storage_commits_total"); v < 1 {
		t.Fatalf("storage_commits_total = %d after save", v)
	}
	if v := scrapeMetric(t, ts, "provpriv_storage_checkpoints_total"); v < 1 {
		t.Fatalf("storage_checkpoints_total = %d after save", v)
	}
	var st struct {
		Storage *storage.MeasureStats `json:"storage"`
	}
	if code := get(t, ts, "alice", "/api/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.Storage == nil || st.Storage.Commits < 1 || st.Storage.CheckpointRecords < 1 {
		t.Fatalf("stats storage block: %+v", st.Storage)
	}

	// A server with no bound backend omits the block and the metrics.
	ts2, _, _ := newTestServer(t)
	resp2, err := ts2.Client().Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if strings.Contains(string(body), "provpriv_storage_") {
		t.Fatal("storage metrics exported without a bound backend")
	}
	var st2 map[string]json.RawMessage
	if code := get(t, ts2, "alice", "/api/v1/stats", &st2); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if _, ok := st2["storage"]; ok {
		t.Fatal("stats storage block present without a bound backend")
	}
}
