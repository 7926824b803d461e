package query

import (
	"testing"

	"provpriv/internal/datapriv"
	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/workflow"
)

// zoomOut walks ZoomOut over views collapsed here, from the spec and the
// policy alone, the way a caller without a repository would, and answers q
// on the final view masked by the unscoped Apply(view, level, Analyze(e)).
func zoomOut(ev *Evaluator, q *Query, e *exec.Execution, pol *privacy.Policy, level privacy.Level) (*ZoomOutResult, error) {
	h, err := workflow.NewHierarchy(ev.Spec)
	if err != nil {
		return nil, err
	}
	prefix, steps, err := ZoomOut(h, pol.AccessView(h, level), pol, level, func(p workflow.Prefix) ([]*exec.Node, error) {
		view, _, err := exec.CollapseIn(e, h, p)
		if err != nil {
			return nil, err
		}
		return view.Nodes, nil
	})
	if err != nil {
		return nil, err
	}
	view, _, err := exec.CollapseIn(e, h, prefix)
	if err != nil {
		return nil, err
	}
	engine := datapriv.NewMasker(pol, nil).Engine()
	masked, _ := engine.Apply(view, level, engine.Analyze(e))
	pe, err := PrepareExec(masked)
	if err != nil {
		return nil, err
	}
	ans, err := ev.EvaluateOn(q, pe, pol, level, steps > 0)
	if err != nil {
		return nil, err
	}
	return &ZoomOutResult{Answer: ans, Prefix: prefix, Steps: steps}, nil
}

func TestZoomOutConvergesToAccessView(t *testing.T) {
	spec, e := diseaseExec(t)
	ev := NewEvaluator(spec)
	pol := privacy.NewPolicy(spec.ID)
	pol.ViewGrants[privacy.Registered] = []string{"W2"} // W3, W4 hidden
	q, _ := Parse(`MATCH a = "consult external"`)
	res, err := zoomOut(ev, q, e, pol, privacy.Registered)
	if err != nil {
		t.Fatalf("ZoomOut: %v", err)
	}
	if res.Steps == 0 {
		t.Fatal("expected at least one zoom-out step")
	}
	// The final prefix must be within the access view.
	h, _ := workflow.NewHierarchy(spec)
	access := pol.AccessView(h, privacy.Registered)
	for wid := range res.Prefix {
		if !access.Contains(wid) {
			t.Fatalf("final prefix %v exceeds access view %v", res.Prefix.IDs(), access.IDs())
		}
	}
	// M4 is visible (W2 granted) and matches.
	if len(res.Answer.Bindings) != 1 || res.Answer.Bindings[0]["a"] != "S3:M4" {
		t.Fatalf("bindings = %v", res.Answer.Bindings)
	}
}

func TestZoomOutNoLeakNoSteps(t *testing.T) {
	spec, e := diseaseExec(t)
	ev := NewEvaluator(spec)
	pol := privacy.NewPolicy(spec.ID)
	h, _ := workflow.NewHierarchy(spec)
	for _, w := range h.All() {
		pol.ViewGrants[privacy.Public] = append(pol.ViewGrants[privacy.Public], w)
	}
	q, _ := Parse(`MATCH a = "expand snp"`)
	res, err := zoomOut(ev, q, e, pol, privacy.Public)
	if err != nil {
		t.Fatalf("ZoomOut: %v", err)
	}
	if res.Steps != 0 {
		t.Fatalf("steps = %d, want 0 for all-access user", res.Steps)
	}
	if len(res.Answer.Bindings) != 1 {
		t.Fatalf("bindings = %v", res.Answer.Bindings)
	}
}

func TestZoomOutModulePrivacyForcesCoarsening(t *testing.T) {
	spec, e := diseaseExec(t)
	ev := NewEvaluator(spec)
	pol := privacy.NewPolicy(spec.ID)
	h, _ := workflow.NewHierarchy(spec)
	for _, w := range h.All() {
		pol.ViewGrants[privacy.Public] = append(pol.ViewGrants[privacy.Public], w)
	}
	pol.ModuleLevels["M6"] = privacy.Owner // Query OMIM protected
	// A broad query whose full answer would expose M6's execution.
	q, _ := Parse(`MATCH a = "query" RETURN nodes`)
	res, err := zoomOut(ev, q, e, pol, privacy.Public)
	if err != nil {
		t.Fatalf("ZoomOut: %v", err)
	}
	if res.Steps == 0 {
		t.Fatal("expected zoom-out to hide the protected execution")
	}
	// W4 (containing M6) must be closed in the final prefix.
	if res.Prefix.Contains("W4") {
		t.Fatalf("final prefix %v still exposes W4", res.Prefix.IDs())
	}
	for _, n := range res.Answer.Nodes {
		if n == "S5:M6" {
			t.Fatal("protected execution still in answer")
		}
	}
}

// Agreement: the zoom-out strategy and the direct access-view strategy
// produce the same bindings whenever the only constraint is the access
// view (no module privacy), since both end at the access view.
func TestZoomOutAgreesWithDirectEvaluation(t *testing.T) {
	spec, e := diseaseExec(t)
	ev := NewEvaluator(spec)
	pol := privacy.NewPolicy(spec.ID)
	pol.ViewGrants[privacy.Registered] = []string{"W2", "W4"}
	queries := []string{
		`MATCH a = "expand snp"`,
		`MATCH a = "query omim"`,
		`MATCH a = "combine disorder"`,
		`MATCH a = "evaluate disorder"`,
	}
	for _, qs := range queries {
		q, err := Parse(qs)
		if err != nil {
			t.Fatalf("Parse(%s): %v", qs, err)
		}
		direct, err := evaluateWithPrivacy(ev, q, e, pol, privacy.Registered)
		if err != nil {
			t.Fatalf("direct %s: %v", qs, err)
		}
		zoomed, err := zoomOut(ev, q, e, pol, privacy.Registered)
		if err != nil {
			t.Fatalf("zoom %s: %v", qs, err)
		}
		if len(direct.Bindings) != len(zoomed.Answer.Bindings) {
			t.Fatalf("%s: direct %v vs zoom-out %v", qs, direct.Bindings, zoomed.Answer.Bindings)
		}
		for i := range direct.Bindings {
			for k, v := range direct.Bindings[i] {
				if zoomed.Answer.Bindings[i][k] != v {
					t.Fatalf("%s: binding mismatch %v vs %v", qs, direct.Bindings[i], zoomed.Answer.Bindings[i])
				}
			}
		}
	}
}
