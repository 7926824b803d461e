package provpriv

// End-to-end taint regression tests: the repository's read paths must
// never serve a raw protected ancestor value embedded inside a derived
// item's trace string. TestRegressionPublicProvenanceEmbedsSNPs is the
// named reproduction of the leak that motivated internal/taint (public
// provenance of prognosis embedded snps=rs123); it fails on the
// pre-taint engine and runs under -race in CI with the rest of the
// suite.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"provpriv/internal/datapriv"
	"provpriv/internal/exec"
	"provpriv/internal/graph"
	"provpriv/internal/privacy"
	"provpriv/internal/repo"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// diseaseLeakRepo reproduces examples/disease exactly: the Fig. 1
// workflow, the Section 3 policy and the example's inputs (snps
// rs123,rs456), plus one user per access level. It returns the policy it
// registered beside the repository.
func diseaseLeakRepo(t *testing.T) (*repo.Repository, *workflow.Spec, *exec.Execution, *privacy.Policy) {
	t.Helper()
	spec := workflow.DiseaseSusceptibility()
	pol := privacy.NewPolicy(spec.ID)
	pol.DataLevels["snps"] = privacy.Owner
	pol.DataLevels["family_history"] = privacy.Owner
	pol.DataLevels["disorders"] = privacy.Analyst
	pol.ViewGrants[privacy.Registered] = []string{"W2", "W3"}
	pol.ViewGrants[privacy.Analyst] = []string{"W4"}
	r := repo.New()
	if err := r.AddSpec(spec, pol); err != nil {
		t.Fatalf("AddSpec: %v", err)
	}
	e, err := exec.NewRunner(spec, nil).Run("E1", map[string]exec.Value{
		"snps": "rs123,rs456", "ethnicity": "eth1", "lifestyle": "active",
		"family_history": "cardiac", "symptoms": "fatigue",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := r.AddExecution(e); err != nil {
		t.Fatalf("AddExecution: %v", err)
	}
	addLevelUsers(r)
	return r, spec, e, pol
}

func addLevelUsers(r *repo.Repository) {
	for _, u := range []privacy.User{
		{Name: "pub", Level: privacy.Public, Group: "g0"},
		{Name: "reg", Level: privacy.Registered, Group: "g1"},
		{Name: "ana", Level: privacy.Analyst, Group: "g2"},
		{Name: "own", Level: privacy.Owner, Group: "g3"},
	} {
		r.AddUser(u)
	}
}

func itemByAttr(t *testing.T, e *exec.Execution, attr string) string {
	t.Helper()
	for _, id := range e.ItemIDs() {
		if e.Items[id].Attr == attr {
			return id
		}
	}
	t.Fatalf("no item with attr %q", attr)
	return ""
}

// TestRegressionPublicProvenanceEmbedsSNPs is the named reproduction:
// before taint propagation, the public provenance of prognosis embedded
// the owner-only snps value rs123 verbatim inside the trace string.
func TestRegressionPublicProvenanceEmbedsSNPs(t *testing.T) {
	r, spec, e, pol := diseaseLeakRepo(t)
	prognosis := itemByAttr(t, e, "prognosis")
	prov, err := r.Provenance("pub", spec.ID, "E1", prognosis)
	if err != nil {
		t.Fatalf("public provenance of prognosis: %v", err)
	}
	for id, it := range prov.Items {
		for _, raw := range []string{"rs123", "rs456", "cardiac"} {
			if strings.Contains(string(it.Value), raw) {
				t.Errorf("public provenance item %s (%s) embeds %q: %q", id, it.Attr, raw, it.Value)
			}
		}
	}
	// The prognosis trace must survive rewritten, not redacted — the
	// whole point of rewriting over wholesale redaction.
	if it := prov.Items[prognosis]; it == nil || it.Redacted {
		t.Fatalf("prognosis missing or redacted in its own provenance: %+v", it)
	}

	// Negative control, proving the regression test bites: the same view
	// masked without taint propagation — a nil taint set, which the
	// repository never passes — is exactly the documented hole.
	h, err := workflow.NewHierarchy(spec)
	if err != nil {
		t.Fatal(err)
	}
	view, err := exec.Collapse(e, spec, pol.AccessView(h, privacy.Public))
	if err != nil {
		t.Fatalf("Collapse: %v", err)
	}
	local, _ := datapriv.NewMasker(pol, nil).Engine().Apply(view, privacy.Public, nil)
	leaky, err := exec.ProvenanceIn(local, local.Graph(), prognosis)
	if err != nil {
		t.Fatalf("untainted provenance: %v", err)
	}
	var reproduced bool
	for _, it := range leaky.Items {
		if strings.Contains(string(it.Value), "rs123") {
			reproduced = true
		}
	}
	if !reproduced {
		t.Fatal("attribute-local masking no longer reproduces the rs123 leak; the regression fixture is stale")
	}
}

// TestRegressionAnalystQueryEmbedsSNPs covers the structural-query read
// path: the Section 4 example query as an analyst binds real modules
// (the analyst sees W2–W4) and returns provenance subgraphs, whose item
// values must not embed the owner-only snps value.
func TestRegressionAnalystQueryEmbedsSNPs(t *testing.T) {
	r, spec, _, _ := diseaseLeakRepo(t)
	q := `MATCH a = "expand snp", b = "query omim" WHERE a ~> b RETURN provenance(b)`
	ans, err := r.Query("ana", spec.ID, "E1", q)
	if err != nil {
		t.Fatalf("query as ana: %v", err)
	}
	if len(ans.Bindings) == 0 {
		t.Fatal("analyst query bound nothing; the fixture no longer exercises provenance")
	}
	for _, prov := range ans.Provenance {
		for id, it := range prov.Items {
			for _, raw := range []string{"rs123", "rs456", "cardiac"} {
				if strings.Contains(string(it.Value), raw) {
					t.Errorf("analyst query provenance item %s embeds %q: %q", id, raw, it.Value)
				}
			}
		}
	}
}

// leakOracle asserts, for one served execution view, that no visible
// item embeds the raw value of a protected ancestor above the viewer's
// level. It recomputes reachability from the raw execution, independent
// of the engine's own taint set.
func leakOracle(t *testing.T, full, served *exec.Execution, pol *privacy.Policy, level privacy.Level, ctx string) {
	t.Helper()
	g := full.Graph()
	cl, err := graph.NewClosure(g)
	if err != nil {
		t.Fatalf("%s: closure: %v", ctx, err)
	}
	for _, srcID := range full.ItemIDs() {
		src := full.Items[srcID]
		if pol.DataLevels[src.Attr] <= level || src.Value == "" {
			continue
		}
		from := g.Lookup(src.Producer)
		if from < 0 {
			t.Fatalf("%s: producer %s missing from graph", ctx, src.Producer)
		}
		for id, it := range served.Items {
			fullItem := full.Items[id]
			if fullItem == nil {
				continue
			}
			prod := g.Lookup(fullItem.Producer)
			if prod < 0 || !cl.Reach(from, prod) {
				continue
			}
			if strings.Contains(string(it.Value), string(src.Value)) {
				t.Errorf("%s: item %s (%s) embeds protected ancestor %s=%q at level %s",
					ctx, id, it.Attr, src.Attr, src.Value, level)
			}
		}
	}
}

// TestLeakFreeProvenanceAllLevels sweeps the example workflow and
// synthetic random specs: for every execution, every item and every
// access level, served provenance must pass the ancestor oracle.
func TestLeakFreeProvenanceAllLevels(t *testing.T) {
	r, spec, e, pol := diseaseLeakRepo(t)
	execs := map[string]map[string]*exec.Execution{spec.ID: {"E1": e}}
	pols := map[string]*privacy.Policy{spec.ID: pol}

	for i := 0; i < 3; i++ {
		s, err := workload.RandomSpec(workload.SpecConfig{
			Seed: int64(300 + i), ID: fmt.Sprintf("leak-synth-%d", i),
			Depth: 3, Fanout: 2, Chain: 4, SkipProb: 0.25,
		})
		if err != nil {
			t.Fatalf("synth %d: %v", i, err)
		}
		pol, err := workload.RandomPolicy(s, int64(300+i))
		if err != nil {
			t.Fatalf("policy %d: %v", i, err)
		}
		inputs := workload.RandomInputs(s, int64(i))
		attrs := make([]string, 0, len(inputs))
		for a := range inputs {
			attrs = append(attrs, a)
		}
		sort.Strings(attrs)
		pol.DataLevels[attrs[0]] = privacy.Owner // deterministic taint source
		if err := r.AddSpec(s, pol); err != nil {
			t.Fatalf("AddSpec synth %d: %v", i, err)
		}
		se, err := exec.NewRunner(s, nil).Run("E1", inputs)
		if err != nil {
			t.Fatalf("run synth %d: %v", i, err)
		}
		if err := r.AddExecution(se); err != nil {
			t.Fatalf("add exec %d: %v", i, err)
		}
		execs[s.ID] = map[string]*exec.Execution{"E1": se}
		pols[s.ID] = pol
	}

	users := []struct {
		name  string
		level privacy.Level
	}{
		{"pub", privacy.Public}, {"reg", privacy.Registered},
		{"ana", privacy.Analyst}, {"own", privacy.Owner},
	}
	for specID, byExec := range execs {
		for execID, full := range byExec {
			for _, u := range users {
				for _, itemID := range full.ItemIDs() {
					prov, err := r.Provenance(u.name, specID, execID, itemID)
					if err != nil {
						continue // hidden at this level: fine
					}
					ctx := fmt.Sprintf("%s/%s/%s as %s", specID, execID, itemID, u.name)
					leakOracle(t, full, prov, pols[specID], u.level, ctx)
				}
			}
		}
	}
}

// TestTaintCountersOnMaterializedFastPath: a repeated provenance read must
// stay leak-free AND keep the taint counters moving — each read fills and
// masks its view, and counts what it masked.
func TestTaintCountersOnMaterializedFastPath(t *testing.T) {
	r, spec, e, _ := diseaseLeakRepo(t)
	prognosis := itemByAttr(t, e, "prognosis")
	if _, err := r.Provenance("pub", spec.ID, "E1", prognosis); err != nil {
		t.Fatalf("first provenance: %v", err)
	}
	before := r.Stats()
	prov, err := r.Provenance("pub", spec.ID, "E1", prognosis)
	if err != nil {
		t.Fatalf("repeated provenance: %v", err)
	}
	for id, it := range prov.Items {
		if strings.Contains(string(it.Value), "rs123") {
			t.Errorf("repeated provenance item %s embeds rs123: %q", id, it.Value)
		}
	}
	if after := r.Stats(); after.TaintRewritten <= before.TaintRewritten {
		t.Fatalf("repeated read did not feed taint counters: %d -> %d", before.TaintRewritten, after.TaintRewritten)
	}
}
