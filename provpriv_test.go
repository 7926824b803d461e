package provpriv

import (
	"strings"
	"testing"
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
	if strings.Join(hits[0].Result.Prefix.IDs(), ",") != "W1,W2,W4" {
		t.Fatalf("prefix = %v", hits[0].Result.Prefix.IDs())
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
	v, err := Expand(spec, FullPrefix(h))
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
	view, err := CollapseExecution(e, spec, NewPrefix("W1"))
	if err != nil {
		t.Fatalf("Collapse: %v", err)
	}
	if len(view.Nodes) != 4 {
		t.Fatalf("root view nodes = %v", view.NodeIDs())
	}
	prov, err := Provenance(e, "d0")
	if err != nil || len(prov.Nodes) != 1 {
		t.Fatalf("Provenance(d0) = %v, %v", prov, err)
	}
	down, err := Downstream(e, "d0")
	if err != nil || len(down) == 0 {
		t.Fatalf("Downstream = %v, %v", down, err)
	}
}

func TestFacadeModulePrivacy(t *testing.T) {
	xor := func(in map[string]Value) map[string]Value {
		v := Value("0")
		if in["a"] != in["b"] {
			v = "1"
		}
		return map[string]Value{"y": v}
	}
	dom := Domain{"a": {"0", "1"}, "b": {"0", "1"}, "y": {"0", "1"}}
	rel, err := EnumerateRelation("m", xor, []string{"a", "b"}, []string{"y"}, dom)
	if err != nil {
		t.Fatalf("EnumerateRelation: %v", err)
	}
	sv, err := GreedySecureView(rel, 2, Weights{"y": 1, "a": 5, "b": 5})
	if err != nil {
		t.Fatalf("GreedySecureView: %v", err)
	}
	if !sv.Hidden["y"] {
		t.Fatalf("hidden = %v", sv.Hidden)
	}
	ex, err := ExhaustiveSecureView(rel, 2, Weights{"y": 1, "a": 5, "b": 5})
	if err != nil || ex.Cost != sv.Cost {
		t.Fatalf("exact = %v, %v", ex, err)
	}
}

func TestFacadeStructuralPrivacy(t *testing.T) {
	spec := DiseaseSusceptibility()
	h, _ := NewHierarchy(spec)
	v, _ := Expand(spec, FullPrefix(h))
	res, err := HideStructuralPairs(v, []StructPair{{From: "M13", To: "M11"}}, CutEdges)
	if err != nil {
		t.Fatalf("HideStructuralPairs: %v", err)
	}
	if !res.Metrics.HiddenOK {
		t.Fatal("pair not hidden")
	}
	res2, err := HideStructuralPairs(v, []StructPair{{From: "M13", To: "M11"}}, ClusterPair)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	if res2.Metrics.ExtraneousPairs == 0 {
		t.Fatal("expected unsoundness from clustering (paper's M10->M14)")
	}
}

func TestFacadeDP(t *testing.T) {
	spec := DiseaseSusceptibility()
	e, _ := NewRunner(spec, nil).Run("E1", map[string]Value{
		"snps": "rs1", "ethnicity": "eth1", "lifestyle": "active",
		"family_history": "fh1", "symptoms": "none",
	})
	rep, err := MeasureDPReproducibility(ProvenanceSizeQuery("d0"), e, 0.5, 100, 1)
	if err != nil {
		t.Fatalf("MeasureDPReproducibility: %v", err)
	}
	if rep.MeanAbsErr == 0 {
		t.Fatal("no noise applied")
	}
}

func TestFacadeNewAPIs(t *testing.T) {
	// Relation composition + chain-aware analysis.
	xor := func(in map[string]Value) map[string]Value {
		v := Value("0")
		if in["a"] != in["b"] {
			v = "1"
		}
		return map[string]Value{"y": v}
	}
	not := func(in map[string]Value) map[string]Value {
		v := Value("1")
		if in["y"] == "1" {
			v = "0"
		}
		return map[string]Value{"w": v}
	}
	dom := Domain{"a": {"0", "1"}, "b": {"0", "1"}, "y": {"0", "1"}, "w": {"0", "1"}}
	relP, err := EnumerateRelation("P", xor, []string{"a", "b"}, []string{"y"}, dom)
	if err != nil {
		t.Fatalf("EnumerateRelation: %v", err)
	}
	relQ, err := EnumerateRelation("Q", not, []string{"y"}, []string{"w"}, dom)
	if err != nil {
		t.Fatalf("EnumerateRelation Q: %v", err)
	}
	comp, err := ComposeRelations(relP, relQ)
	if err != nil || comp.ModuleID != "P;Q" {
		t.Fatalf("ComposeRelations: %v, %v", comp, err)
	}
	lvl, err := EffectiveLevel(relP, []*Relation{relQ}, Hidden{"y": true})
	if err != nil || lvl != 1 {
		t.Fatalf("EffectiveLevel = %d, %v (want leak detected)", lvl, err)
	}
	sv, err := GreedyChainSecureView(relP, []*Relation{relQ}, 2, nil)
	if err != nil || !sv.Hidden["w"] {
		t.Fatalf("GreedyChainSecureView = %v, %v", sv, err)
	}
	// Reconstruction attack.
	stats := ReconstructionAttack(relP, []map[string]Value{{"a": "0", "b": "1"}}, Hidden{})
	if stats.Recovered != 1 {
		t.Fatalf("ReconstructionAttack = %+v", stats)
	}

	// Structural optimizer.
	spec := DiseaseSusceptibility()
	h, _ := NewHierarchy(spec)
	v, _ := Expand(spec, FullPrefix(h))
	best, err := OptimizeStructural(v, []StructPair{{From: "M13", To: "M11"}}, true)
	if err != nil {
		t.Fatalf("OptimizeStructural: %v", err)
	}
	if !best.Metrics.HiddenOK || best.Metrics.ExtraneousPairs != 0 {
		t.Fatalf("best = %+v", best.Metrics)
	}

	// Numeric generalization.
	nh, err := NumericHierarchy("age", 0, 99, 10, 2)
	if err != nil || nh.Generalize("42", 1) != "[40-49]" {
		t.Fatalf("NumericHierarchy: %v, %v", nh, err)
	}

	// Execution diff.
	run := func(id, snps string) *Execution {
		e, err := NewRunner(spec, nil).Run(id, map[string]Value{
			"snps": Value(snps), "ethnicity": "e", "lifestyle": "l",
			"family_history": "f", "symptoms": "s",
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return e
	}
	d, err := CompareExecutions(run("A", "rs1"), run("B", "rs2"))
	if err != nil || d.FirstDivergence != "snps" {
		t.Fatalf("CompareExecutions: %+v, %v", d, err)
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
	r2, err := LoadRepository(dir)
	if err != nil {
		t.Fatalf("LoadRepository: %v", err)
	}
	if r2.Stats().Specs != 1 {
		t.Fatalf("stats = %+v", r2.Stats())
	}
	if _, err := r2.User("u"); err != nil {
		t.Fatalf("user lost: %v", err)
	}
}
