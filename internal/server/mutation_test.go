package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"provpriv/internal/auth"
	"provpriv/internal/exec"
	"provpriv/internal/repo"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// Token secrets of the authenticated test server. The token file binds
// them to the fixture's registered users (bob=public reader,
// carol=analyst writer, alice=owner admin).
const (
	readerSecret = "s-reader"
	writerSecret = "s-writer"
	adminSecret  = "s-admin"
)

// newAuthedServer is newTestServer with bearer-token authentication
// configured: header auth is rejected (the secure default), three
// tokens ladder the roles.
func newAuthedServer(t *testing.T) (*httptest.Server, *Server, *repo.Repository, *exec.Execution) {
	t.Helper()
	_, r, e := newTestServer(t)
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
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv, r, e
}

// do performs a request with an optional bearer secret and decodes the
// JSON response.
func do(t *testing.T, ts *httptest.Server, method, path, secret string, body []byte, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	if secret != "" {
		req.Header.Set("Authorization", "Bearer "+secret)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, path, data, err)
		}
	}
	return resp.StatusCode
}

// installedPolicy observes the fixture spec's installed policy through what
// is served: the public reader's /provenance of e's prognosis item, in which
// the fixture's policy keeps snps redacted (checked here), and the index
// swaps /stats counts, one more with every installed policy.
func installedPolicy(t *testing.T, ts *httptest.Server, e *exec.Execution) (provenance string, swaps int64) {
	t.Helper()
	var progID, snpID string
	for id, it := range e.Items {
		switch it.Attr {
		case "prognosis":
			progID = id
		case "snps":
			snpID = id
		}
	}
	var body json.RawMessage
	path := fmt.Sprintf("/api/v1/provenance?spec=disease-susceptibility&exec=%s&item=%s", e.ID, progID)
	if code := do(t, ts, "GET", path, readerSecret, nil, &body); code != http.StatusOK {
		t.Fatalf("provenance: %d", code)
	}
	var prov struct {
		Provenance *exec.Execution `json:"provenance"`
	}
	if err := json.Unmarshal(body, &prov); err != nil {
		t.Fatal(err)
	}
	if it := prov.Provenance.Items[snpID]; it == nil || !it.Redacted {
		t.Fatalf("public snps = %+v, want redacted as the fixture's policy has it", it)
	}
	var st struct {
		IndexSwaps int64 `json:"index_swaps"`
	}
	if code := do(t, ts, "GET", "/api/v1/stats", readerSecret, nil, &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	return string(body), st.IndexSwaps
}

// zebrafishSpec builds a small spec with a vocabulary no fixture spec
// shares, so index-freshness assertions are unambiguous.
func zebrafishSpec(t testing.TB, id string) *workflow.Spec {
	t.Helper()
	s, err := workflow.NewBuilder(id, "Zebrafish Pipeline", "R").
		Workflow("R", "Root").
		Source("I", "x").
		Atomic("A1", "Zebrafish Genome Study", []string{"x"}, []string{"y"}).
		Sink("O", "y").
		Edge("I", "A1", "x").
		Edge("A1", "O", "y").
		Build()
	if err != nil {
		t.Fatalf("build spec: %v", err)
	}
	return s
}

// TestMutationEndToEnd drives the write path over the wire: a writer
// adds a spec and an execution, a reader immediately searches and
// retrieves provenance (index freshness — no refresh step), the writer
// deletes the spec and the hits disappear.
func TestMutationEndToEnd(t *testing.T) {
	ts, _, _, _ := newAuthedServer(t)
	spec := zebrafishSpec(t, "zfish")
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]json.RawMessage{"spec": specJSON})
	var created struct {
		Spec string `json:"spec"`
	}
	if code := do(t, ts, "POST", "/api/v1/specs", writerSecret, body, &created); code != http.StatusCreated {
		t.Fatalf("add spec: %d", code)
	}
	if created.Spec != "zfish" {
		t.Fatalf("created = %+v", created)
	}

	e, err := exec.NewRunner(spec, nil).Run("EZ1", map[string]exec.Value{"x": "tank-7"})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	execJSON, _ := json.Marshal(e)
	if code := do(t, ts, "POST", "/api/v1/executions", writerSecret, execJSON, nil); code != http.StatusCreated {
		t.Fatalf("add execution: %d", code)
	}

	// Index freshness: the reader token finds the new spec immediately.
	var sr searchResp
	if code := do(t, ts, "GET", "/api/v1/search?q=zebrafish", readerSecret, nil, &sr); code != http.StatusOK {
		t.Fatalf("search: %d", code)
	}
	if len(sr.Hits) != 1 || sr.Hits[0].SpecID != "zfish" {
		t.Fatalf("fresh spec not searchable: %+v", sr.Hits)
	}
	// And the new execution answers provenance.
	var itemID string
	for id := range e.Items {
		itemID = id
	}
	var prov struct {
		Provenance *exec.Execution `json:"provenance"`
	}
	path := fmt.Sprintf("/api/v1/provenance?spec=zfish&exec=EZ1&item=%s", itemID)
	if code := do(t, ts, "GET", path, readerSecret, nil, &prov); code != http.StatusOK {
		t.Fatalf("provenance: %d", code)
	}
	if prov.Provenance == nil || len(prov.Provenance.Nodes) == 0 {
		t.Fatal("empty provenance for fresh execution")
	}

	// Delete: hits disappear, a second delete is 404.
	if code := do(t, ts, "DELETE", "/api/v1/specs/zfish", writerSecret, nil, nil); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	if code := do(t, ts, "GET", "/api/v1/search?q=zebrafish", readerSecret, nil, &sr); code != http.StatusOK {
		t.Fatalf("search after delete: %d", code)
	}
	if len(sr.Hits) != 0 {
		t.Fatalf("deleted spec still searchable: %+v", sr.Hits)
	}
	if code := do(t, ts, "DELETE", "/api/v1/specs/zfish", writerSecret, nil, nil); code != http.StatusNotFound {
		t.Fatalf("double delete: %d, want 404", code)
	}
}

// TestMutationAuthz sweeps the denial matrix: missing/invalid
// credentials are 401, insufficient roles are 403, and the trusted
// header scheme is rejected outright when a token file is configured.
func TestMutationAuthz(t *testing.T) {
	ts, _, _, _ := newAuthedServer(t)
	specBody := []byte(`{"spec":{}}`)

	// 401: no credentials, wrong secret, non-bearer scheme.
	if code := do(t, ts, "POST", "/api/v1/specs", "", specBody, nil); code != http.StatusUnauthorized {
		t.Fatalf("no creds: %d", code)
	}
	if code := do(t, ts, "POST", "/api/v1/specs", "nope", specBody, nil); code != http.StatusUnauthorized {
		t.Fatalf("bad secret: %d", code)
	}
	req, _ := http.NewRequest("GET", ts.URL+"/api/v1/stats", nil)
	req.Header.Set("Authorization", "Basic Zm9vOmJhcg==")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("basic auth: %d", resp.StatusCode)
	}

	// Header auth is rejected when tokens are configured —
	// even for reads, even naming a registered user.
	hreq, _ := http.NewRequest("GET", ts.URL+"/api/v1/stats", nil)
	hreq.Header.Set("X-Prov-User", "alice")
	hresp, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("header auth with token file: %d, want 401", hresp.StatusCode)
	}

	// 403: role ladder enforced — reader can't write, writer can't save.
	if code := do(t, ts, "POST", "/api/v1/specs", readerSecret, specBody, nil); code != http.StatusForbidden {
		t.Fatalf("reader mutation: %d, want 403", code)
	}
	if code := do(t, ts, "DELETE", "/api/v1/specs/disease-susceptibility", readerSecret, nil, nil); code != http.StatusForbidden {
		t.Fatalf("reader delete: %d, want 403", code)
	}
	if code := do(t, ts, "POST", "/api/v1/save", writerSecret, nil, nil); code != http.StatusForbidden {
		t.Fatalf("writer save: %d, want 403", code)
	}
	// Reads still work for every role.
	for _, secret := range []string{readerSecret, writerSecret, adminSecret} {
		if code := do(t, ts, "GET", "/api/v1/specs", secret, nil, nil); code != http.StatusOK {
			t.Fatalf("read with %s: %d", secret, code)
		}
	}

}

// TestQueryParamPrincipalCannotMutate: the bare ?user= parameter is a
// curl convenience for reads; a cross-site "simple request" can forge
// it without a preflight, so mutations must demand header-borne
// credentials — in dev mode (no token file) the X-Prov-User header
// works, the URL parameter never does.
func TestQueryParamPrincipalCannotMutate(t *testing.T) {
	ts, _, _ := newTestServer(t) // legacy dev-mode server, Auth == nil
	spec := zebrafishSpec(t, "zq")
	specJSON, _ := json.Marshal(spec)
	body, _ := json.Marshal(map[string]json.RawMessage{"spec": specJSON})

	// ?user= principal: read OK, mutation 401.
	resp, err := ts.Client().Post(ts.URL+"/api/v1/specs?user=alice", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("query-param mutation: %d, want 401", resp.StatusCode)
	}
	if code := get(t, ts, "", "/api/v1/stats?user=alice", nil); code != http.StatusOK {
		t.Fatalf("query-param read: %d", code)
	}
	// Header principal: dev mode grants the full surface.
	req, _ := http.NewRequest("POST", ts.URL+"/api/v1/specs", bytes.NewReader(body))
	req.Header.Set("X-Prov-User", "alice")
	hresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusCreated {
		t.Fatalf("dev-mode header mutation: %d, want 201", hresp.StatusCode)
	}
}

// TestBearerSchemeCaseInsensitive: RFC 7235 auth-scheme names are
// case-insensitive — "bearer"/"BEARER" must authenticate like "Bearer".
func TestBearerSchemeCaseInsensitive(t *testing.T) {
	ts, _, _, _ := newAuthedServer(t)
	for _, scheme := range []string{"Bearer", "bearer", "BEARER"} {
		req, _ := http.NewRequest("GET", ts.URL+"/api/v1/stats", nil)
		req.Header.Set("Authorization", scheme+" "+readerSecret)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scheme %q: %d, want 200", scheme, resp.StatusCode)
		}
	}
}

// TestUnknownBodyFieldRejected: a typo'd key in a mutation body must be
// a 400, never a silent semantic change — {"plicy": ...} on PUT /policy
// would otherwise decode as a nil policy and reset the spec to
// all-public with a 200.
func TestUnknownBodyFieldRejected(t *testing.T) {
	ts, _, _, e := newAuthedServer(t)
	served, swaps := installedPolicy(t, ts, e)
	body := `{"spec":"disease-susceptibility","plicy":{"data_levels":{"snps":3}}}`
	if code := do(t, ts, "PUT", "/api/v1/policy", writerSecret, []byte(body), nil); code != http.StatusBadRequest {
		t.Fatalf("typo'd policy key: %d, want 400", code)
	}
	// The policy is untouched: snps is still owner-protected.
	if got, n := installedPolicy(t, ts, e); got != served || n != swaps {
		t.Fatal("typo'd body silently reset the policy")
	}
	gen := `{"spec":"disease-susceptibility","heirarchies":{}}`
	if code := do(t, ts, "PUT", "/api/v1/generalization", writerSecret, []byte(gen), nil); code != http.StatusBadRequest {
		t.Fatalf("typo'd hierarchies key: %d, want 400", code)
	}
}

// TestMutationConflictsAndValidation covers 409 on duplicates and 400
// on malformed bodies.
func TestMutationConflictsAndValidation(t *testing.T) {
	ts, _, r, _ := newAuthedServer(t)
	spec := zebrafishSpec(t, "zf2")
	specJSON, _ := json.Marshal(spec)
	body, _ := json.Marshal(map[string]json.RawMessage{"spec": specJSON})
	if code := do(t, ts, "POST", "/api/v1/specs", writerSecret, body, nil); code != http.StatusCreated {
		t.Fatalf("add spec: %d", code)
	}
	// Duplicate spec → 409.
	if code := do(t, ts, "POST", "/api/v1/specs", writerSecret, body, nil); code != http.StatusConflict {
		t.Fatalf("duplicate spec: %d, want 409", code)
	}
	// Duplicate execution → 409; unknown spec → 404.
	e, err := exec.NewRunner(spec, nil).Run("E1", map[string]exec.Value{"x": "v"})
	if err != nil {
		t.Fatal(err)
	}
	execJSON, _ := json.Marshal(e)
	if code := do(t, ts, "POST", "/api/v1/executions", writerSecret, execJSON, nil); code != http.StatusCreated {
		t.Fatalf("add exec: %d", code)
	}
	if code := do(t, ts, "POST", "/api/v1/executions", writerSecret, execJSON, nil); code != http.StatusConflict {
		t.Fatalf("duplicate exec: %d, want 409", code)
	}
	e2 := *e
	e2.SpecID = "no-such-spec"
	orphan, _ := json.Marshal(&e2)
	if code := do(t, ts, "POST", "/api/v1/executions", writerSecret, orphan, nil); code != http.StatusNotFound {
		t.Fatalf("orphan exec: %d, want 404", code)
	}

	// Malformed bodies → 400.
	for name, req := range map[string]struct {
		method, path string
		body         string
	}{
		"not json":          {"POST", "/api/v1/specs", "{"},
		"empty spec":        {"POST", "/api/v1/specs", "{}"},
		"trailing garbage":  {"POST", "/api/v1/specs", `{"spec":{}} extra`},
		"exec not json":     {"POST", "/api/v1/executions", "nope"},
		"policy no spec":    {"PUT", "/api/v1/policy", `{"policy":{}}`},
		"policy wrong spec": {"PUT", "/api/v1/policy", `{"spec":"zf2","policy":{"spec":"other"}}`},
		"gen no spec":       {"PUT", "/api/v1/generalization", `{"hierarchies":{}}`},
		"gen attr clash":    {"PUT", "/api/v1/generalization", `{"spec":"zf2","hierarchies":{"a":{"attr":"b"}}}`},
		"gen nil ladder":    {"PUT", "/api/v1/generalization", `{"spec":"zf2","hierarchies":{"a":null}}`},
	} {
		if code := do(t, ts, req.method, req.path, writerSecret, []byte(req.body), nil); code != http.StatusBadRequest {
			t.Fatalf("%s: %d, want 400", name, code)
		}
	}
	// Policy update for an unknown spec → 404.
	if code := do(t, ts, "PUT", "/api/v1/policy", writerSecret, []byte(`{"spec":"missing"}`), nil); code != http.StatusNotFound {
		t.Fatalf("policy unknown spec: %d, want 404", code)
	}
	// The repository still validates content (not just transport JSON):
	// a structurally invalid spec is a 400, not a 500 or a partial add.
	bad, _ := json.Marshal(map[string]json.RawMessage{"spec": []byte(`{"id":"broken"}`)})
	if code := do(t, ts, "POST", "/api/v1/specs", writerSecret, bad, nil); code != http.StatusBadRequest {
		t.Fatalf("invalid spec: %d, want 400", code)
	}
	if r.Spec("broken") != nil {
		t.Fatal("invalid spec partially registered")
	}
}

// TestUnhideablePairRefusedOverWire: a structural pair is hidden by
// withdrawing the deepest composite holding both modules, so a pair whose
// modules share no composite cannot be hidden: PUT /policy and POST /specs
// answer 400 naming it, and install nothing.
func TestUnhideablePairRefusedOverWire(t *testing.T) {
	ts, _, r, e := newAuthedServer(t)
	var fail struct {
		Error string `json:"error"`
	}
	served, swaps := installedPolicy(t, ts, e)
	body := `{"spec":"disease-susceptibility","policy":{"structural":[{"from":"M3","to":"M9","level":3}]}}`
	if code := do(t, ts, "PUT", "/api/v1/policy", writerSecret, []byte(body), &fail); code != http.StatusBadRequest || !strings.Contains(fail.Error, "M3->M9") {
		t.Fatalf("PUT /policy hiding M3 (W2) -> M9 (W3): %d %q, want 400 naming the pair", code, fail.Error)
	}
	if got, n := installedPolicy(t, ts, e); got != served || n != swaps {
		t.Fatalf("refused policy installed: %d index swaps, want %d; public provenance\n got %s\nwant %s", n, swaps, got, served)
	}
	specJSON, _ := json.Marshal(zebrafishSpec(t, "zf-pair"))
	add, _ := json.Marshal(map[string]json.RawMessage{"spec": specJSON, "policy": []byte(`{"structural":[{"from":"I","to":"A1","level":3}]}`)})
	if code := do(t, ts, "POST", "/api/v1/specs", writerSecret, add, &fail); code != http.StatusBadRequest || !strings.Contains(fail.Error, "I->A1") {
		t.Fatalf("POST /specs hiding I -> A1, both in the root: %d %q, want 400 naming the pair", code, fail.Error)
	}
	if r.Spec("zf-pair") != nil {
		t.Fatal("spec registered under a refused policy")
	}
	body = `{"spec":"disease-susceptibility","policy":{"structural":[{"from":"M13","to":"M11","level":3}]}}`
	if code := do(t, ts, "PUT", "/api/v1/policy", writerSecret, []byte(body), nil); code != http.StatusOK {
		t.Fatalf("PUT /policy hiding M13 -> M11, both in W3: %d, want 200", code)
	}
}

// TestModuleGammaRefusedOverWire: module privacy is served as visibility
// (module_levels) only, so a policy cannot ask for a Γ-secure view: PUT
// /policy and POST /specs whose policy names module_gamma answer 400 and
// install nothing, rather than accept a requirement no answer honours.
func TestModuleGammaRefusedOverWire(t *testing.T) {
	ts, _, r, e := newAuthedServer(t)
	served, swaps := installedPolicy(t, ts, e)
	body := `{"spec":"disease-susceptibility","policy":{"spec":"disease-susceptibility","module_gamma":{"M1":4}}}`
	if code := do(t, ts, "PUT", "/api/v1/policy", writerSecret, []byte(body), nil); code != http.StatusBadRequest {
		t.Fatalf("PUT /policy with module_gamma: %d, want 400", code)
	}
	got, n := installedPolicy(t, ts, e)
	if n != swaps {
		t.Fatal("a policy asking for Γ replaced the installed one")
	}
	if got != served {
		t.Fatalf("answer moved after a refused policy:\n got %s\nwant %s", got, served)
	}
	specJSON, _ := json.Marshal(zebrafishSpec(t, "zf-gamma"))
	add, _ := json.Marshal(map[string]json.RawMessage{"spec": specJSON, "policy": []byte(`{"module_gamma":{"A1":4}}`)})
	if code := do(t, ts, "POST", "/api/v1/specs", writerSecret, add, nil); code != http.StatusBadRequest {
		t.Fatalf("POST /specs with module_gamma: %d, want 400", code)
	}
	if r.Spec("zf-gamma") != nil {
		t.Fatal("spec registered under a policy asking for Γ")
	}
}

// TestPolicyAndGeneralizationOverWire: PUT /policy and PUT
// /generalization reach the engine — a ladder installed over the wire
// turns the public user's redacted snps into a generalized value, and a
// policy update reclassifies visibility.
func TestPolicyAndGeneralizationOverWire(t *testing.T) {
	ts, _, _, e := newAuthedServer(t)
	var progID, snpID string
	for id, it := range e.Items {
		switch it.Attr {
		case "prognosis":
			progID = id
		case "snps":
			snpID = id
		}
	}
	path := fmt.Sprintf("/api/v1/provenance?spec=disease-susceptibility&exec=%s&item=%s", e.ID, progID)
	var prov struct {
		Provenance *exec.Execution `json:"provenance"`
	}
	// Baseline: public reader sees snps redacted.
	if code := do(t, ts, "GET", path, readerSecret, nil, &prov); code != http.StatusOK {
		t.Fatalf("provenance: %d", code)
	}
	if it := prov.Provenance.Items[snpID]; it == nil || !it.Redacted {
		t.Fatalf("baseline snps = %+v, want redacted", it)
	}
	// Install a ladder over the wire.
	gen := `{"spec":"disease-susceptibility","hierarchies":{"snps":{"attr":"snps","levels":[{"rs1":"chr1"},{"chr1":"genome"}]}}}`
	if code := do(t, ts, "PUT", "/api/v1/generalization", writerSecret, []byte(gen), nil); code != http.StatusOK {
		t.Fatalf("set generalization: %d", code)
	}
	if code := do(t, ts, "GET", path, readerSecret, nil, &prov); code != http.StatusOK {
		t.Fatalf("provenance after ladder: %d", code)
	}
	if it := prov.Provenance.Items[snpID]; it == nil || it.Redacted || it.Value != "genome" {
		t.Fatalf("generalized snps = %+v, want genome", it)
	}
	// Replace the policy over the wire: opening snps to the public makes
	// the raw value visible again.
	pol := `{"spec":"disease-susceptibility","policy":{"spec":"disease-susceptibility"}}`
	if code := do(t, ts, "PUT", "/api/v1/policy", writerSecret, []byte(pol), nil); code != http.StatusOK {
		t.Fatalf("update policy: %d", code)
	}
	if code := do(t, ts, "GET", path, readerSecret, nil, &prov); code != http.StatusOK {
		t.Fatalf("provenance after policy: %d", code)
	}
	if it := prov.Provenance.Items[snpID]; it == nil || it.Redacted || it.Value != "rs1" {
		t.Fatalf("open-policy snps = %+v, want raw rs1", it)
	}
}

// TestSaveEndpoint: admin-only persistence to the operator-configured
// directory.
func TestSaveEndpoint(t *testing.T) {
	ts, srv, _, _ := newAuthedServer(t)
	// Unconfigured → 400 even for the admin.
	if code := do(t, ts, "POST", "/api/v1/save", adminSecret, nil, nil); code != http.StatusBadRequest {
		t.Fatalf("save without dir: %d, want 400", code)
	}
	dir := t.TempDir()
	srv.SaveDir = dir
	var saved struct {
		Dir string `json:"dir"`
	}
	if code := do(t, ts, "POST", "/api/v1/save", adminSecret, nil, &saved); code != http.StatusOK {
		t.Fatalf("save: %d", code)
	}
	if saved.Dir != dir {
		t.Fatalf("saved dir = %q", saved.Dir)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	// The saved directory round-trips.
	r2, err := repo.Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(r2.SpecIDs()) != 1 {
		t.Fatalf("reloaded specs = %v", r2.SpecIDs())
	}
}

// TestMutationMetrics: mutations_total and auth_failures_total move in
// /metrics, per-token counters appear in /stats.
func TestMutationMetrics(t *testing.T) {
	ts, _, _, _ := newAuthedServer(t)
	if v := scrapeMetric(t, ts, "provpriv_mutations_total"); v != 0 {
		t.Fatalf("initial mutations_total = %d", v)
	}
	spec := zebrafishSpec(t, "zm")
	specJSON, _ := json.Marshal(spec)
	body, _ := json.Marshal(map[string]json.RawMessage{"spec": specJSON})
	if code := do(t, ts, "POST", "/api/v1/specs", writerSecret, body, nil); code != http.StatusCreated {
		t.Fatalf("add spec: %d", code)
	}
	do(t, ts, "POST", "/api/v1/specs", "bogus", body, nil)      // 401
	do(t, ts, "POST", "/api/v1/specs", readerSecret, body, nil) // 403
	if v := scrapeMetric(t, ts, "provpriv_mutations_total"); v != 1 {
		t.Fatalf("mutations_total = %d, want 1", v)
	}
	if v := scrapeMetric(t, ts, "provpriv_auth_failures_total"); v < 2 {
		t.Fatalf("auth_failures_total = %d, want >= 2", v)
	}
	// Per-token series in /metrics (labeled) and /stats (JSON).
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), `provpriv_auth_token_uses_total{token="t-writer",role="writer"}`) {
		t.Fatalf("per-token metric missing:\n%s", raw)
	}
	var st struct {
		Mutations    int64            `json:"mutations_total"`
		AuthFailures int64            `json:"auth_failures_total"`
		Tokens       []auth.TokenStat `json:"tokens"`
	}
	if code := do(t, ts, "GET", "/api/v1/stats", adminSecret, nil, &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.Mutations != 1 || st.AuthFailures < 2 || len(st.Tokens) != 3 {
		t.Fatalf("stats = %+v", st)
	}
	var writerUses int64
	for _, tok := range st.Tokens {
		if tok.Name == "t-writer" {
			writerUses = tok.Uses
		}
	}
	if writerUses != 1 {
		t.Fatalf("writer uses = %d, want 1 (one authenticated add-spec)", writerUses)
	}
}

// TestMutateWhileRead is the -race pass of the mutation surface: writer
// goroutines POST fresh specs and executions over the wire while reader
// goroutines search, query and scrape stats. Mirrors the PR 2 churn
// harness, now through the authenticated HTTP stack.
func TestMutateWhileRead(t *testing.T) {
	ts, _, _, _ := newAuthedServer(t)
	var wg sync.WaitGroup
	// Writers: each adds distinct specs + executions via the API.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				id := fmt.Sprintf("churn-%d-%d", g, i)
				s, err := workload.RandomSpec(workload.SpecConfig{
					Seed: int64(g*100 + i), ID: id, Depth: 2, Fanout: 2, Chain: 3, SkipProb: 0.2,
				})
				if err != nil {
					t.Errorf("RandomSpec: %v", err)
					return
				}
				specJSON, _ := json.Marshal(s)
				body, _ := json.Marshal(map[string]json.RawMessage{"spec": specJSON})
				if code := do(t, ts, "POST", "/api/v1/specs", writerSecret, body, nil); code != http.StatusCreated {
					t.Errorf("add spec %s: %d", id, code)
					return
				}
				e, err := exec.NewRunner(s, nil).Run(id+"-E0", workload.RandomInputs(s, int64(i)))
				if err != nil {
					t.Errorf("Run: %v", err)
					return
				}
				execJSON, _ := json.Marshal(e)
				if code := do(t, ts, "POST", "/api/v1/executions", writerSecret, execJSON, nil); code != http.StatusCreated {
					t.Errorf("add exec %s: %d", id, code)
					return
				}
			}
		}(g)
	}
	// Readers: continuous search/query/stats traffic during the churn.
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			secrets := []string{readerSecret, writerSecret, adminSecret}
			for i := 0; i < 30; i++ {
				secret := secrets[(c+i)%len(secrets)]
				if code := do(t, ts, "GET", "/api/v1/search?q=query&limit=3", secret, nil, nil); code != http.StatusOK {
					t.Errorf("reader %d: search %d", c, code)
					return
				}
				if code := do(t, ts, "GET", "/api/v1/stats", secret, nil, nil); code != http.StatusOK {
					t.Errorf("reader %d: stats %d", c, code)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	// Every churned spec is present and searchable afterwards.
	var specs struct {
		Specs []specInfo `json:"specs"`
	}
	if code := do(t, ts, "GET", "/api/v1/specs", readerSecret, nil, &specs); code != http.StatusOK {
		t.Fatalf("specs: %d", code)
	}
	if len(specs.Specs) != 1+2*6 {
		t.Fatalf("specs after churn = %d, want 13", len(specs.Specs))
	}
}
