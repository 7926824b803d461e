package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/repo"
	"provpriv/internal/workflow"
)

// fillCountServer serves the paper's spec with four executions under
// newTestServer's policy and users, through the production Handler() stack.
func fillCountServer(t *testing.T) *httptest.Server {
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
	for i := 1; i <= 4; i++ {
		e, err := exec.NewRunner(s, nil).Run(fmt.Sprintf("E%d", i), map[string]exec.Value{
			"snps": exec.Value(fmt.Sprintf("rs%d", i)), "ethnicity": "eth1", "lifestyle": "active",
			"family_history": "fh1", "symptoms": "none",
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if err := r.AddExecution(e); err != nil {
			t.Fatalf("AddExecution: %v", err)
		}
	}
	r.AddUser(privacy.User{Name: "alice", Level: privacy.Owner, Group: "owners"})
	r.AddUser(privacy.User{Name: "bob", Level: privacy.Public, Group: "public"})
	r.AddUser(privacy.User{Name: "carol", Level: privacy.Analyst, Group: "analysts"})
	ts := httptest.NewServer(New(r).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestBindingsQueriesFillNothing: a /query that returns bindings (the
// default) or nodes reads no item value, so on every route — one
// execution, all executions, and the zoom-out — it neither fills nor looks
// up a masked snapshot, at any level; an all-executions query that returns
// provenance fills the window's executions and no others.
func TestBindingsQueriesFillNothing(t *testing.T) {
	ts := fillCountServer(t)
	counters := func() (hits, misses int64) {
		return scrapeMetric(t, ts, "provpriv_masked_exec_cache_hits_total"),
			scrapeMetric(t, ts, "provpriv_masked_exec_cache_misses_total")
	}
	answered := 0
	for _, text := range []string{`MATCH a = "disorder"`, `MATCH a = "disorder" RETURN bindings`, `MATCH a = "disorder" RETURN nodes`} {
		for _, route := range []string{"", "&exec=E1", "&exec=E1&zoom=true"} {
			for _, user := range []string{"alice", "bob", "carol"} {
				var page queryPage
				path := "/api/v1/query?spec=disease-susceptibility&q=" + url.QueryEscape(text) + route
				if code := get(t, ts, user, path, &page); code != http.StatusOK {
					t.Fatalf("%s as %s: %d", path, user, code)
				}
				answered += page.Total
			}
		}
	}
	if answered == 0 {
		t.Fatal("no query bound anything: the fill count says nothing")
	}
	if hits, misses := counters(); hits != 0 || misses != 0 {
		t.Fatalf("queries that read no value looked up the masked cache: %d hits, %d misses", hits, misses)
	}

	var page queryPage
	path := "/api/v1/query?spec=disease-susceptibility&limit=2&q=" + url.QueryEscape(`MATCH a = "disorder" RETURN provenance(a)`)
	if code := get(t, ts, "bob", path, &page); code != http.StatusOK {
		t.Fatalf("%s: %d", path, code)
	}
	if page.Total != 4 || len(page.Answers) != 2 {
		t.Fatalf("provenance window: %d answers of %d, want 2 of 4", len(page.Answers), page.Total)
	}
	hits, misses := counters()
	if hits != 0 || misses == 0 || misses > 2 {
		t.Fatalf("a provenance query windowed to 2 of 4 executions: %d hits, %d misses, want at most 2 fills", hits, misses)
	}
}
