package provpriv

import (
	"strings"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/repo"
	"provpriv/internal/workflow"
)

// TestFacadeEndToEnd walks the README quickstart through the facade:
// build the paper's workflow, attach a policy, run it, search it and
// retrieve masked provenance.
func TestFacadeEndToEnd(t *testing.T) {
	spec := DiseaseSusceptibility()
	r := NewRepository()
	pol := NewPolicy(spec.ID)
	pol.DataLevels["snps"] = Owner
	pol.ViewGrants[Analyst] = []string{"W2", "W3", "W4"}
	if err := r.AddSpec(spec, pol); err != nil {
		t.Fatalf("AddSpec: %v", err)
	}
	e, err := NewRunner(spec, nil).Run("E1", map[string]Value{
		"snps": "rs1", "ethnicity": "eth1", "lifestyle": "active",
		"family_history": "fh1", "symptoms": "none",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := r.AddExecution(e); err != nil {
		t.Fatalf("AddExecution: %v", err)
	}
	r.AddUser(User{Name: "alice", Level: Analyst, Group: "g"})

	hits, err := r.Search("alice", "database, disorder risks", SearchOptions{})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(hits) != 1 {
		t.Fatalf("hits = %v", hits)
	}
	if strings.Join(hits[0].Result.Prefix().IDs(), ",") != "W1,W2,W4" {
		t.Fatalf("prefix = %v", hits[0].Result.Prefix().IDs())
	}

	ans, err := r.Query("alice", spec.ID, "E1",
		`MATCH a = "expand snp", b = "query omim" WHERE a ~> b RETURN provenance(b)`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(ans.Bindings) != 1 {
		t.Fatalf("bindings = %v", ans.Bindings)
	}
}

func TestFacadeViewsAndProvenance(t *testing.T) {
	spec := DiseaseSusceptibility()
	h, err := NewHierarchy(spec)
	if err != nil {
		t.Fatalf("NewHierarchy: %v", err)
	}
	v, err := workflow.Expand(spec, FullPrefix(h))
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(v.Modules) != 14 {
		t.Fatalf("full expansion = %d modules", len(v.Modules))
	}
	e, err := NewRunner(spec, nil).Run("E1", map[string]Value{
		"snps": "rs1", "ethnicity": "eth1", "lifestyle": "active",
		"family_history": "fh1", "symptoms": "none",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	view, err := CollapseExecution(e, spec, workflow.NewPrefix("W1"))
	if err != nil {
		t.Fatalf("Collapse: %v", err)
	}
	if len(view.Nodes) != 4 {
		t.Fatalf("root view nodes = %v", view.NodeIDs())
	}
	prov, err := exec.ProvenanceIn(e, e.Graph(), "d0")
	if err != nil || len(prov.Nodes) != 1 {
		t.Fatalf("Provenance(d0) = %v, %v", prov, err)
	}
	down, err := Downstream(e, "d0")
	if err != nil || len(down) == 0 {
		t.Fatalf("Downstream = %v, %v", down, err)
	}
}

func TestFacadeSaveLoad(t *testing.T) {
	dir := t.TempDir()
	spec := DiseaseSusceptibility()
	r := NewRepository()
	if err := r.AddSpec(spec, nil); err != nil {
		t.Fatalf("AddSpec: %v", err)
	}
	r.AddUser(User{Name: "u", Level: Owner, Group: "g"})
	if err := r.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	r2, err := repo.Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if r2.Stats().Specs != 1 {
		t.Fatalf("stats = %+v", r2.Stats())
	}
	if _, err := r2.User("u"); err != nil {
		t.Fatalf("user lost: %v", err)
	}
}
