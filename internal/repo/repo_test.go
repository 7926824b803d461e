package repo

import (
	"strings"
	"sync"
	"testing"

	"provpriv/internal/datapriv"
	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/query"
	"provpriv/internal/workflow"
)

func seededRepo(t *testing.T) *Repository {
	t.Helper()
	r := New()
	s := workflow.DiseaseSusceptibility()
	pol := privacy.NewPolicy(s.ID)
	pol.DataLevels["snps"] = privacy.Owner
	pol.ModuleLevels["M6"] = privacy.Owner
	pol.ViewGrants[privacy.Registered] = []string{"W2"}
	pol.ViewGrants[privacy.Analyst] = []string{"W3", "W4"}
	if err := r.AddSpec(s, pol); err != nil {
		t.Fatalf("AddSpec: %v", err)
	}
	run := exec.NewRunner(s, nil)
	e, err := run.Run("E1", map[string]exec.Value{
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
	return r
}

func TestAddSpecValidation(t *testing.T) {
	r := New()
	s := workflow.DiseaseSusceptibility()
	if err := r.AddSpec(s, nil); err != nil {
		t.Fatalf("AddSpec: %v", err)
	}
	if err := r.AddSpec(s, nil); err == nil {
		t.Fatal("duplicate spec accepted")
	}
	bad := privacy.NewPolicy("wrong-id")
	r2 := New()
	if err := r2.AddSpec(s, bad); err == nil {
		t.Fatal("mismatched policy accepted")
	}
}

func TestAddExecutionValidation(t *testing.T) {
	r := seededRepo(t)
	orphan := &exec.Execution{ID: "EX", SpecID: "nope", Items: map[string]*exec.DataItem{}}
	if err := r.AddExecution(orphan); err == nil {
		t.Fatal("execution for unknown spec accepted")
	}
	if got := r.ExecutionIDs("disease-susceptibility"); len(got) != 1 || got[0] != "E1" {
		t.Fatalf("ExecutionIDs = %v", got)
	}
}

func TestUserLookup(t *testing.T) {
	r := seededRepo(t)
	u, err := r.User("alice")
	if err != nil || u.Level != privacy.Owner {
		t.Fatalf("User(alice) = %v, %v", u, err)
	}
	if _, err := r.User("mallory"); err == nil {
		t.Fatal("unknown user found")
	}
}

func TestSearchAsOwnerFindsOMIM(t *testing.T) {
	r := seededRepo(t)
	hits, err := r.Search("alice", "omim", SearchOptions{})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(hits) != 1 || hits[0].SpecID != "disease-susceptibility" {
		t.Fatalf("hits = %v", hits)
	}
	if hits[0].Score <= 0 {
		t.Fatalf("score = %v", hits[0].Score)
	}
}

func TestSearchModulePrivacyHidesFromPublic(t *testing.T) {
	r := seededRepo(t)
	hits, err := r.Search("bob", "omim", SearchOptions{})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(hits) != 0 {
		t.Fatalf("public user found private module: %v", hits)
	}
}

func TestSearchAccessViewClipsResult(t *testing.T) {
	r := seededRepo(t)
	// carol (Analyst) has full view grants; bob (Public) only W1.
	hitsCarol, err := r.Search("carol", "database, disorder risks", SearchOptions{})
	if err != nil {
		t.Fatalf("Search carol: %v", err)
	}
	if len(hitsCarol) != 1 {
		t.Fatalf("carol hits = %v", hitsCarol)
	}
	if strings.Join(hitsCarol[0].Result.Prefix.IDs(), ",") != "W1,W2,W4" {
		t.Fatalf("carol prefix = %v (Fig. 5 expected)", hitsCarol[0].Result.Prefix.IDs())
	}
	hitsBob, err := r.Search("bob", "database, disorder risks", SearchOptions{})
	if err != nil {
		t.Fatalf("Search bob: %v", err)
	}
	if len(hitsBob) != 1 {
		t.Fatalf("bob hits = %v", hitsBob)
	}
	if !hitsBob[0].Result.ZoomedOut {
		t.Fatal("bob's result not zoomed out")
	}
	if strings.Join(hitsBob[0].Result.Prefix.IDs(), ",") != "W1" {
		t.Fatalf("bob prefix = %v", hitsBob[0].Result.Prefix.IDs())
	}
}

func TestSearchBucketedScores(t *testing.T) {
	r := seededRepo(t)
	exact, err := r.Search("carol", "database", SearchOptions{})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	bucketed, err := r.Search("carol", "database", SearchOptions{Buckets: 2})
	if err != nil {
		t.Fatalf("Search bucketed: %v", err)
	}
	if len(exact) != len(bucketed) {
		t.Fatalf("result counts differ: %d vs %d", len(exact), len(bucketed))
	}
}

func TestQueryPaperExample(t *testing.T) {
	r := seededRepo(t)
	ans, err := r.Query("alice", "disease-susceptibility", "E1",
		`MATCH a = "expand snp", b = "query omim" WHERE a ~> b RETURN provenance(b)`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(ans.Bindings) != 1 {
		t.Fatalf("bindings = %v", ans.Bindings)
	}
	// Public user cannot see M6 executions (module privacy + view).
	ansPub, err := r.Query("bob", "disease-susceptibility", "E1",
		`MATCH b = "query omim"`)
	if err != nil {
		t.Fatalf("Query bob: %v", err)
	}
	if len(ansPub.Bindings) != 0 {
		t.Fatalf("public bindings = %v", ansPub.Bindings)
	}
}

func TestQueryAllAndErrors(t *testing.T) {
	r := seededRepo(t)
	out, err := r.QueryAll("alice", "disease-susceptibility", `MATCH a = "reformat"`)
	if err != nil {
		t.Fatalf("QueryAll: %v", err)
	}
	if len(out) != 1 {
		t.Fatalf("answers = %d", len(out))
	}
	if _, err := r.Query("alice", "nope", "E1", `MATCH a = "x"`); err == nil {
		t.Fatal("unknown spec accepted")
	}
	if _, err := r.Query("alice", "disease-susceptibility", "EX", `MATCH a = "x"`); err == nil {
		t.Fatal("unknown execution accepted")
	}
	if _, err := r.Query("alice", "disease-susceptibility", "E1", `garbage`); err == nil {
		t.Fatal("bad query accepted")
	}
}

func TestProvenancePrivacyPipeline(t *testing.T) {
	r := seededRepo(t)
	// alice sees everything: provenance of the prognosis item (d18).
	e := r.execution("disease-susceptibility", "E1")
	var progID, snpID string
	for id, it := range e.Items {
		switch it.Attr {
		case "prognosis":
			progID = id
		case "snps":
			snpID = id
		}
	}
	prov, err := r.Provenance("alice", "disease-susceptibility", "E1", progID)
	if err != nil {
		t.Fatalf("Provenance: %v", err)
	}
	if len(prov.Nodes) < 5 {
		t.Fatalf("provenance too small: %v", prov.NodeIDs())
	}
	// bob: prognosis visible at root view; snps masked.
	provBob, err := r.Provenance("bob", "disease-susceptibility", "E1", progID)
	if err != nil {
		t.Fatalf("Provenance bob: %v", err)
	}
	for _, it := range provBob.Items {
		if it.Attr == "snps" && !it.Redacted {
			t.Fatal("snps not masked for public user")
		}
	}
	// bob's view is the root view: internal nodes are collapsed.
	for _, n := range provBob.Nodes {
		if strings.Contains(n.ID, "-begin") || strings.Contains(n.ID, "M5") {
			t.Fatalf("internal node %s leaked to public provenance", n.ID)
		}
	}
	_ = snpID
	// An internal item is not visible to bob at all.
	var internalID string
	for id, it := range e.Items {
		if it.Attr == "snp_set" {
			internalID = id
		}
	}
	if _, err := r.Provenance("bob", "disease-susceptibility", "E1", internalID); err == nil {
		t.Fatal("internal item visible to public user")
	}
	if _, err := r.Provenance("alice", "disease-susceptibility", "E1", internalID); err != nil {
		t.Fatalf("owner blocked from internal item: %v", err)
	}
}

func TestStatsAndDescribe(t *testing.T) {
	r := seededRepo(t)
	st := r.Stats()
	if st.Specs != 1 || st.Executions != 1 || st.Users != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.IndexTerms == 0 || st.Postings == 0 {
		t.Fatalf("index empty: %+v", st)
	}
	if !strings.Contains(r.Describe(), "specs: 1") {
		t.Fatalf("Describe:\n%s", r.Describe())
	}
}

func TestConcurrentSearch(t *testing.T) {
	r := seededRepo(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			users := []string{"alice", "bob", "carol"}
			for j := 0; j < 30; j++ {
				_, _ = r.Search(users[j%3], "database", SearchOptions{})
				_, _ = r.Search(users[j%3], "query", SearchOptions{})
			}
		}(i)
	}
	wg.Wait()
}

func TestQuerySpec(t *testing.T) {
	r := seededRepo(t)
	// alice (Owner) sees the full expansion.
	ans, err := r.QuerySpec("alice", "disease-susceptibility",
		`MATCH a = "expand snp", b = "query omim" WHERE a ~> b`)
	if err != nil {
		t.Fatalf("QuerySpec: %v", err)
	}
	if len(ans.Bindings) != 1 || ans.Bindings[0]["b"] != "M6" {
		t.Fatalf("bindings = %v", ans.Bindings)
	}
	// bob (Public, view {W1}) cannot see M6 at all.
	ansBob, err := r.QuerySpec("bob", "disease-susceptibility", `MATCH b = "query omim"`)
	if err != nil {
		t.Fatalf("QuerySpec bob: %v", err)
	}
	if len(ansBob.Bindings) != 0 {
		t.Fatalf("bob bindings = %v", ansBob.Bindings)
	}
	// Unknown spec errors.
	if _, err := r.QuerySpec("alice", "nope", `MATCH a = "x"`); err == nil {
		t.Fatal("unknown spec accepted")
	}
}

func TestSetGeneralization(t *testing.T) {
	r := seededRepo(t)
	h := &datapriv.Hierarchy{
		Attr: "snps",
		Levels: []map[exec.Value]exec.Value{
			{"rs1": "chr1"},
			{"chr1": "genome"},
		},
	}
	if err := r.SetGeneralization("disease-susceptibility", map[string]*datapriv.Hierarchy{"snps": h}); err != nil {
		t.Fatalf("SetGeneralization: %v", err)
	}
	if err := r.SetGeneralization("nope", nil); err == nil {
		t.Fatal("unknown spec accepted")
	}
	// carol (Analyst < Owner by 1): snps generalized 1 step, not redacted.
	e := r.execution("disease-susceptibility", "E1")
	var progID string
	for id, it := range e.Items {
		if it.Attr == "prognosis" {
			progID = id
		}
	}
	prov, err := r.Provenance("carol", "disease-susceptibility", "E1", progID)
	if err != nil {
		t.Fatalf("Provenance: %v", err)
	}
	found := false
	for _, it := range prov.Items {
		if it.Attr == "snps" {
			found = true
			if it.Redacted || it.Value != "chr1" {
				t.Fatalf("snps = %+v, want generalized chr1", it)
			}
		}
	}
	if !found {
		t.Fatal("snps item not in provenance")
	}
}

func TestQueryZoomOutAgreesWithQuery(t *testing.T) {
	r := seededRepo(t)
	q := `MATCH a = "consult external"`
	direct, err := r.Query("bob", "disease-susceptibility", "E1", q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	zoomed, err := r.QueryZoomOut("bob", "disease-susceptibility", "E1", q)
	if err != nil {
		t.Fatalf("QueryZoomOut: %v", err)
	}
	if len(direct.Bindings) != len(zoomed.Answer.Bindings) {
		t.Fatalf("direct %v vs zoomed %v", direct.Bindings, zoomed.Answer.Bindings)
	}
	// bob is Public: everything below W1 must zoom shut.
	if zoomed.Steps == 0 {
		t.Fatal("no zoom-out steps for public user")
	}
	if _, err := r.QueryZoomOut("bob", "nope", "E1", q); err == nil {
		t.Fatal("unknown spec accepted")
	}
}

// TestQueryZoomOutHonoursGeneralization: zoom=1 masks through the installed
// generation's engine, ladders included, so a below-level user's zoomed
// RETURN provenance(...) carries the generalized value exactly as the direct
// query's does — not the redaction a ladder-less masker would leave.
func TestQueryZoomOutHonoursGeneralization(t *testing.T) {
	r := seededRepo(t)
	if err := r.SetGeneralization(diseaseID, snpsLadder()); err != nil {
		t.Fatalf("SetGeneralization: %v", err)
	}
	snpID := itemByAttr(t, r, "snps")
	q := `MATCH a = "expand snp" RETURN provenance(a)`
	direct, err := r.Query("carol", diseaseID, "E1", q) // analyst: one rung short of owner
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	zoomed, err := r.QueryZoomOut("carol", diseaseID, "E1", q)
	if err != nil {
		t.Fatalf("QueryZoomOut: %v", err)
	}
	for name, ans := range map[string]*query.Answer{"direct": direct, "zoomed": zoomed.Answer} {
		if len(ans.Provenance) != 1 {
			t.Fatalf("%s: %d provenance graphs, want 1", name, len(ans.Provenance))
		}
		if it := ans.Provenance[0].Items[snpID]; it == nil || it.Redacted || it.Value != "chr1" {
			t.Fatalf("%s: analyst snps = %+v, want generalized chr1", name, it)
		}
	}
}

func TestRemoveSpec(t *testing.T) {
	r := seededRepo(t)
	if err := r.RemoveSpec("disease-susceptibility"); err != nil {
		t.Fatalf("RemoveSpec: %v", err)
	}
	if r.Spec("disease-susceptibility") != nil {
		t.Fatal("spec still present")
	}
	if hits, _ := r.Search("alice", "database", SearchOptions{}); len(hits) != 0 {
		t.Fatalf("removed spec still searchable: %v", hits)
	}
	if _, err := r.Query("alice", "disease-susceptibility", "E1", `MATCH a = "reformat"`); err == nil {
		t.Fatal("removed spec still queryable")
	}
	if err := r.RemoveSpec("disease-susceptibility"); err == nil {
		t.Fatal("double remove accepted")
	}
	// Re-adding works (indexes consistent).
	if err := r.AddSpec(workflow.DiseaseSusceptibility(), nil); err != nil {
		t.Fatalf("re-AddSpec: %v", err)
	}
	if hits, err := r.Search("alice", "database", SearchOptions{}); err != nil || len(hits) != 1 {
		t.Fatalf("re-added spec not searchable: %v, %v", hits, err)
	}
}

func TestReachesEnforcesStructuralPrivacy(t *testing.T) {
	r := New()
	s := workflow.DiseaseSusceptibility()
	pol := privacy.NewPolicy(s.ID)
	pol.Structural = []privacy.HiddenPair{{From: "M13", To: "M11", Level: privacy.Owner}}
	h, _ := workflow.NewHierarchy(s)
	for _, w := range h.All() {
		pol.ViewGrants[privacy.Public] = append(pol.ViewGrants[privacy.Public], w)
	}
	if err := r.AddSpec(s, pol); err != nil {
		t.Fatalf("AddSpec: %v", err)
	}
	r.AddUser(privacy.User{Name: "pub", Level: privacy.Public, Group: "g"})
	r.AddUser(privacy.User{Name: "own", Level: privacy.Owner, Group: "g"})

	// The protected pair: hidden from public, visible to owner.
	got, err := r.Reaches("pub", s.ID, "M13", "M11")
	if err != nil {
		t.Fatalf("Reaches: %v", err)
	}
	if got {
		t.Fatal("hidden pair answered true for public user")
	}
	got, err = r.Reaches("own", s.ID, "M13", "M11")
	if err != nil || !got {
		t.Fatalf("owner Reaches = %v, %v", got, err)
	}
	// The pair withdraws W3, the workflow holding both, below Owner: every
	// module of W3 answers as M2, so a true pair inside W3 answers false too.
	if got, _ = r.Reaches("pub", s.ID, "M12", "M11"); got {
		t.Fatal("a pair inside the withdrawn W3 answered true for public")
	}
	// True pairs outside W3 stay answerable.
	for _, c := range [][2]string{{"M3", "M5"}, {"M6", "M8"}, {"M8", "M2"}} {
		if got, _ = r.Reaches("pub", s.ID, c[0], c[1]); !got {
			t.Fatalf("true pair %s -> %s outside W3 answered false", c[0], c[1])
		}
	}
	// False pair stays false (the famous M10 -> M14).
	got, _ = r.Reaches("pub", s.ID, "M10", "M14")
	if got {
		t.Fatal("non-path answered true")
	}
}

// TestReachesSelfPairHasOneAnswer: whether a module "contributes to
// itself" must not depend on which path serves the asker — the reflexive
// full-expansion closure (full access view) or the collapsed view (every
// other level). Every module of the spec, composite or not, visible or
// represented by a composite, at every level: false.
func TestReachesSelfPairHasOneAnswer(t *testing.T) {
	r := seededRepo(t)
	r.AddUser(privacy.User{Name: "dave", Level: privacy.Registered, Group: "registered"})
	s := r.Spec("disease-susceptibility")
	for _, user := range []string{"bob", "dave", "carol", "alice"} {
		for _, wid := range s.WorkflowIDs() {
			for _, m := range s.Workflows[wid].Modules {
				got, err := r.Reaches(user, s.ID, m.ID, m.ID)
				if err != nil || got {
					t.Errorf("Reaches(%s, %s, %s) = %v, %v; want false at every level", user, m.ID, m.ID, got, err)
				}
			}
		}
	}
	if _, err := r.Reaches("alice", s.ID, "MX", "MX"); err == nil {
		t.Fatal("unknown self-pair accepted")
	}
}

func TestReachesResolvesToComposite(t *testing.T) {
	r := seededRepo(t) // bob is Public with view {W1}
	// M3 and M6 both live inside M1's expansion; for bob both collapse
	// into M1 — relationship not externally visible.
	got, err := r.Reaches("bob", "disease-susceptibility", "M3", "M6")
	if err != nil {
		t.Fatalf("Reaches: %v", err)
	}
	if got {
		t.Fatal("intra-composite pair visible to public user")
	}
	// M3 (inside M1) to M9 (inside M2): composites M1 -> M2 are
	// connected at bob's granularity.
	got, err = r.Reaches("bob", "disease-susceptibility", "M3", "M9")
	if err != nil || !got {
		t.Fatalf("cross-composite Reaches = %v, %v", got, err)
	}
	// Errors for unknown ids.
	if _, err := r.Reaches("bob", "disease-susceptibility", "MX", "M9"); err == nil {
		t.Fatal("unknown module accepted")
	}
	if _, err := r.Reaches("bob", "nope", "M3", "M9"); err == nil {
		t.Fatal("unknown spec accepted")
	}
}

// TestReachesFullExpansionClosure: at a level that sees the whole
// hierarchy, Reaches answers from the shard's full-expansion closure.
func TestReachesFullExpansionClosure(t *testing.T) {
	r := seededRepo(t) // alice is Owner: every workflow granted
	for _, c := range []struct {
		from, to string
		want     bool
	}{
		{"M3", "M5", true},    // paper's full-expansion edge
		{"M8", "M9", true},    // across composite boundary
		{"M3", "M15", true},   // long chain
		{"M10", "M14", false}, // the famous non-path
		{"M15", "M3", false},
		{"I", "O", true},
	} {
		if got, err := r.Reaches("alice", "disease-susceptibility", c.from, c.to); err != nil || got != c.want {
			t.Errorf("Reaches(%s,%s) = %v, %v; want %v", c.from, c.to, got, err, c.want)
		}
	}
	if _, err := r.Reaches("alice", "disease-susceptibility", "M3", "NOPE"); err == nil {
		t.Error("unknown module accepted")
	}
}
