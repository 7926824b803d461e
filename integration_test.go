package provpriv

// End-to-end integration test: a repository mixing the paper's workflow
// with synthetic specs and random policies, exercised by users at every
// access level. Asserts the system-wide privacy invariants — no answer
// from any entry point may exceed the requesting user's rights.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/repo"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// buildIntegrationRepo returns the repository and, per spec id, the policy
// it registered.
func buildIntegrationRepo(t *testing.T) (*repo.Repository, map[string]*privacy.Policy) {
	t.Helper()
	r := repo.New()
	pols := make(map[string]*privacy.Policy)

	// The paper's workflow with its Section 3 policy.
	disease := workflow.DiseaseSusceptibility()
	pol := privacy.NewPolicy(disease.ID)
	pol.DataLevels["snps"] = privacy.Owner
	pol.DataLevels["disorders"] = privacy.Analyst
	pol.ModuleLevels["M6"] = privacy.Owner
	pol.ViewGrants[privacy.Registered] = []string{"W2"}
	pol.ViewGrants[privacy.Analyst] = []string{"W3", "W4"}
	if err := r.AddSpec(disease, pol); err != nil {
		t.Fatalf("AddSpec disease: %v", err)
	}
	pols[disease.ID] = pol
	runner := exec.NewRunner(disease, nil)
	for i := 0; i < 3; i++ {
		e, err := runner.Run(fmt.Sprintf("disease-E%d", i), map[string]exec.Value{
			"snps": exec.Value(fmt.Sprintf("rs%d", i)), "ethnicity": "eth1",
			"lifestyle": "active", "family_history": "fh", "symptoms": "none",
		})
		if err != nil {
			t.Fatalf("run disease %d: %v", i, err)
		}
		if err := r.AddExecution(e); err != nil {
			t.Fatalf("add exec: %v", err)
		}
	}

	// Synthetic specs with random policies.
	for i := 0; i < 4; i++ {
		s, err := workload.RandomSpec(workload.SpecConfig{
			Seed: int64(100 + i), ID: fmt.Sprintf("synth-%d", i),
			Depth: 3, Fanout: 2, Chain: 4, SkipProb: 0.25,
		})
		if err != nil {
			t.Fatalf("synth %d: %v", i, err)
		}
		sp, err := workload.RandomPolicy(s, int64(100+i))
		if err != nil {
			t.Fatalf("policy %d: %v", i, err)
		}
		if err := r.AddSpec(s, sp); err != nil {
			t.Fatalf("AddSpec synth %d: %v", i, err)
		}
		pols[s.ID] = sp
		rr := exec.NewRunner(s, nil)
		for j := 0; j < 2; j++ {
			e, err := rr.Run(fmt.Sprintf("synth-%d-E%d", i, j), workload.RandomInputs(s, int64(j)))
			if err != nil {
				t.Fatalf("run synth %d/%d: %v", i, j, err)
			}
			if err := r.AddExecution(e); err != nil {
				t.Fatalf("add exec: %v", err)
			}
		}
	}

	for _, u := range []privacy.User{
		{Name: "pub", Level: privacy.Public, Group: "g0"},
		{Name: "reg", Level: privacy.Registered, Group: "g1"},
		{Name: "ana", Level: privacy.Analyst, Group: "g2"},
		{Name: "own", Level: privacy.Owner, Group: "g3"},
	} {
		r.AddUser(u)
	}
	return r, pols
}

func TestIntegrationPrivacyInvariants(t *testing.T) {
	r, pols := buildIntegrationRepo(t)
	rng := rand.New(rand.NewSource(55))
	users := []struct {
		name  string
		level privacy.Level
	}{
		{"pub", privacy.Public}, {"reg", privacy.Registered},
		{"ana", privacy.Analyst}, {"own", privacy.Owner},
	}
	queries := append(workload.RandomQueries(rng, nil, 10),
		"database, disorder risks", "query", "snp")

	for _, u := range users {
		for _, q := range queries {
			hits, err := r.Search(u.name, q, repo.SearchOptions{})
			if err != nil {
				continue
			}
			for _, h := range hits {
				pol := pols[h.SpecID]
				spec := r.Spec(h.SpecID)
				h2, _ := workflow.NewHierarchy(spec)
				access := pol.AccessView(h2, u.level)
				// Invariant 1: result view within access view.
				for wid := range h.Result.Prefix() {
					if !access.Contains(wid) {
						t.Fatalf("user %s query %q: view %v exceeds access %v in %s",
							u.name, q, h.Result.Prefix().IDs(), access.IDs(), h.SpecID)
					}
				}
				// Invariant 2: no match names a module-private module the
				// user may not see.
				for _, m := range h.Result.Matches {
					if !pol.CanSeeModule(u.level, m.ModuleID) {
						t.Fatalf("user %s query %q: match on hidden module %s",
							u.name, q, m.ModuleID)
					}
				}
			}
		}
	}
}

func TestIntegrationProvenanceMasking(t *testing.T) {
	r, pols := buildIntegrationRepo(t)
	for _, specID := range r.SpecIDs() {
		pol := pols[specID]
		for _, execID := range r.ExecutionIDs(specID) {
			for _, u := range []struct {
				name  string
				level privacy.Level
			}{{"pub", privacy.Public}, {"reg", privacy.Registered}, {"own", privacy.Owner}} {
				// Probe every item; visible ones must be masked per policy.
				// (Item ids d0..d30 cover all generated executions.)
				for i := 0; i < 30; i++ {
					itemID := fmt.Sprintf("d%d", i)
					prov, err := r.Provenance(u.name, specID, execID, itemID)
					if err != nil {
						continue // item hidden or absent: fine
					}
					for _, it := range prov.Items {
						if !pol.CanSeeData(u.level, it.Attr) && !it.Redacted {
							t.Fatalf("user %s: unredacted protected attr %q in provenance of %s/%s",
								u.name, it.Attr, specID, itemID)
						}
					}
				}
			}
		}
	}
}

func TestIntegrationStructuralQueryLevels(t *testing.T) {
	r, _ := buildIntegrationRepo(t)
	q := `MATCH a = "query omim"`
	// Owners find M6 in every execution; public users never do.
	for _, eid := range r.ExecutionIDs("disease-susceptibility") {
		a, err := r.Query("own", "disease-susceptibility", eid, q)
		if err != nil {
			t.Fatalf("Query own: %v", err)
		}
		if len(a.Bindings) != 1 {
			t.Fatalf("owner exec bindings = %v", a.Bindings)
		}
		b, err := r.Query("pub", "disease-susceptibility", eid, q)
		if err != nil {
			t.Fatalf("Query pub: %v", err)
		}
		if len(b.Bindings) != 0 {
			t.Fatalf("public exec bindings = %v", b.Bindings)
		}
	}
}

// TestIntegrationMaterializationConsistency: a repository whose
// enforced views were all built by earlier reads answers from its cache
// exactly like one that builds them on first read.
func TestIntegrationMaterializationConsistency(t *testing.T) {
	plain, _ := buildIntegrationRepo(t)
	mat, _ := buildIntegrationRepo(t)
	for _, specID := range mat.SpecIDs() {
		for _, execID := range mat.ExecutionIDs(specID) {
			for _, user := range []string{"pub", "ana", "own"} {
				// Only a provenance return reads, and so fills, the enforced view.
				if _, err := mat.Query(user, specID, execID, `MATCH a = "query" RETURN provenance(a)`); err != nil {
					t.Fatalf("warming %s/%s as %s: %v", specID, execID, user, err)
				}
			}
		}
	}
	warmMisses := mat.Stats().MaskedCacheMisses
	for _, specID := range plain.SpecIDs() {
		for _, execID := range plain.ExecutionIDs(specID) {
			for i := 0; i < 25; i += 5 {
				itemID := fmt.Sprintf("d%d", i)
				for _, user := range []string{"pub", "ana", "own"} {
					a, errA := plain.Provenance(user, specID, execID, itemID)
					b, errB := mat.Provenance(user, specID, execID, itemID)
					if (errA == nil) != (errB == nil) {
						t.Fatalf("%s/%s/%s %s: err mismatch %v vs %v", specID, execID, itemID, user, errA, errB)
					}
					if errA != nil {
						continue
					}
					if strings.Join(a.NodeIDs(), ",") != strings.Join(b.NodeIDs(), ",") {
						t.Fatalf("%s/%s/%s %s: node mismatch", specID, execID, itemID, user)
					}
				}
			}
		}
	}
	if got := mat.Stats().MaskedCacheMisses; got != warmMisses {
		t.Fatalf("the warm repository filled cold: misses %d -> %d", warmMisses, got)
	}
}
