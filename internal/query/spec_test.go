package query

import (
	"strings"
	"testing"

	"provpriv/internal/privacy"
	"provpriv/internal/workflow"
)

func fullDiseaseView(t *testing.T) *workflow.View {
	t.Helper()
	spec := workflow.DiseaseSusceptibility()
	h, _ := workflow.NewHierarchy(spec)
	v, err := workflow.Expand(spec, workflow.FullPrefix(h))
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	return v
}

func TestEvaluateSpecBasic(t *testing.T) {
	v := fullDiseaseView(t)
	q, _ := Parse(`MATCH a = "expand snp", b = "query omim" WHERE a ~> b`)
	ans, err := NewEvaluator(v.Spec).EvaluateSpec(q, v, nil, 0)
	if err != nil {
		t.Fatalf("EvaluateSpec: %v", err)
	}
	if len(ans.Bindings) != 1 {
		t.Fatalf("bindings = %v", ans.Bindings)
	}
	if ans.Bindings[0]["a"] != "M3" || ans.Bindings[0]["b"] != "M6" {
		t.Fatalf("binding = %v", ans.Bindings[0])
	}
}

func TestEvaluateSpecNegation(t *testing.T) {
	// The famous non-path: M10 does not reach M14 in the spec.
	v := fullDiseaseView(t)
	q, _ := Parse(`MATCH a = "id:M10", b = "id:M14" WHERE a !~> b`)
	ans, err := NewEvaluator(v.Spec).EvaluateSpec(q, v, nil, 0)
	if err != nil {
		t.Fatalf("EvaluateSpec: %v", err)
	}
	if len(ans.Bindings) != 1 {
		t.Fatalf("bindings = %v", ans.Bindings)
	}
}

func TestEvaluateSpecProvenanceAndDownstream(t *testing.T) {
	v := fullDiseaseView(t)
	q, _ := Parse(`MATCH a = "id:M8" RETURN provenance(a)`)
	ans, err := NewEvaluator(v.Spec).EvaluateSpec(q, v, nil, 0)
	if err != nil {
		t.Fatalf("EvaluateSpec: %v", err)
	}
	if len(ans.Sub) != 1 {
		t.Fatalf("sub views = %d", len(ans.Sub))
	}
	up := strings.Join(ans.Sub[0], ",")
	for _, want := range []string{"I", "M3", "M5", "M6", "M7", "M8"} {
		if !strings.Contains(up, want) {
			t.Fatalf("upstream of M8 = %v, missing %s", ans.Sub[0], want)
		}
	}
	if strings.Contains(up, "M9") {
		t.Fatalf("upstream of M8 contains downstream module: %v", ans.Sub[0])
	}
	q2, _ := Parse(`MATCH a = "id:M8" RETURN downstream(a)`)
	ans2, _ := NewEvaluator(v.Spec).EvaluateSpec(q2, v, nil, 0)
	down := strings.Join(ans2.Sub[0], ",")
	for _, want := range []string{"M8", "M9", "M15", "O"} {
		if !strings.Contains(down, want) {
			t.Fatalf("downstream of M8 = %v, missing %s", ans2.Sub[0], want)
		}
	}
}

func TestEvaluateSpecModulePrivacy(t *testing.T) {
	v := fullDiseaseView(t)
	pol := privacy.NewPolicy(v.Spec.ID)
	pol.ModuleLevels["M6"] = privacy.Owner
	q, _ := Parse(`MATCH b = "query omim"`)
	ans, err := NewEvaluator(v.Spec).EvaluateSpec(q, v, pol, privacy.Public)
	if err != nil {
		t.Fatalf("EvaluateSpec: %v", err)
	}
	if len(ans.Bindings) != 0 {
		t.Fatalf("private module matched: %v", ans.Bindings)
	}
	ansOwner, _ := NewEvaluator(v.Spec).EvaluateSpec(q, v, pol, privacy.Owner)
	if len(ansOwner.Bindings) != 1 {
		t.Fatalf("owner bindings = %v", ansOwner.Bindings)
	}
}

func TestEvaluateSpecReturnNodes(t *testing.T) {
	v := fullDiseaseView(t)
	q, _ := Parse(`MATCH a = "search" RETURN nodes`)
	ans, err := NewEvaluator(v.Spec).EvaluateSpec(q, v, nil, 0)
	if err != nil {
		t.Fatalf("EvaluateSpec: %v", err)
	}
	if strings.Join(ans.Modules, ",") != "M10,M12" {
		t.Fatalf("modules = %v", ans.Modules)
	}
}

// Spec-level and execution-level answers agree on the full expansion:
// a spec binding (module ids) corresponds 1:1 to an execution binding.
func TestSpecAndExecutionAgreement(t *testing.T) {
	spec := workflow.DiseaseSusceptibility()
	v := fullDiseaseView(t)
	_, e := diseaseExec(t)
	ev := NewEvaluator(spec)
	queries := []string{
		`MATCH a = "generate database", b = "combine disorder" WHERE a ~> b`,
		`MATCH a = "search", b = "id:M15" WHERE a ~> b`,
		`MATCH a = "reformat", b = "summarize" WHERE a -> b`,
	}
	for _, qs := range queries {
		q, err := Parse(qs)
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		sAns, err := NewEvaluator(v.Spec).EvaluateSpec(q, v, nil, 0)
		if err != nil {
			t.Fatalf("EvaluateSpec: %v", err)
		}
		eAns, err := ev.Evaluate(q, e)
		if err != nil {
			t.Fatalf("Evaluate: %v", err)
		}
		if len(sAns.Bindings) != len(eAns.Bindings) {
			t.Fatalf("%s: spec %d bindings vs exec %d", qs, len(sAns.Bindings), len(eAns.Bindings))
		}
	}
}
