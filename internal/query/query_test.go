package query

import (
	"strings"
	"testing"

	"provpriv/internal/datapriv"
	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/workflow"
)

func diseaseExec(t *testing.T) (*workflow.Spec, *exec.Execution) {
	t.Helper()
	spec := workflow.DiseaseSusceptibility()
	r := exec.NewRunner(spec, nil)
	e, err := r.Run("E1", map[string]exec.Value{
		"snps": "rs1", "ethnicity": "eth1", "lifestyle": "active",
		"family_history": "fh1", "symptoms": "none",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return spec, e
}

// evaluateWithPrivacy runs q under the paper's privacy-controlled
// semantics for a user at level, from scratch: e is collapsed to the
// user's access view, its values are masked per the data policy, and
// module-private executions cannot be matched. It is the masked-evaluation
// oracle the query and zoom-out tests hold the evaluator to; the
// repository serves the same four steps from its caches.
func evaluateWithPrivacy(ev *Evaluator, q *Query, e *exec.Execution, pol *privacy.Policy, level privacy.Level) (*Answer, error) {
	h, err := workflow.NewHierarchy(ev.Spec)
	if err != nil {
		return nil, err
	}
	prefix := pol.AccessView(h, level)
	collapsed, err := exec.Collapse(e, ev.Spec, prefix)
	if err != nil {
		return nil, err
	}
	// Taint is analyzed on the full execution (protected items inside
	// collapsed composites are gone from the view but still taint their
	// descendants' trace strings), then applied to the view.
	masked, _ := datapriv.NewMasker(pol, nil).MaskView(e, collapsed, level)
	pe, err := PrepareExec(masked)
	if err != nil {
		return nil, err
	}
	return ev.EvaluateOn(q, pe, pol, level, len(prefix) < h.Size())
}

func TestParseFullQuery(t *testing.T) {
	q, err := Parse(`MATCH a = "expand snp", b = "query omim" WHERE a ~> b RETURN provenance(b)`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Vars) != 2 || len(q.VarOrder) != 2 {
		t.Fatalf("vars = %v", q.Vars)
	}
	if strings.Join(q.Vars["a"], "+") != "expand+snp" {
		t.Fatalf("a = %v", q.Vars["a"])
	}
	if len(q.Constraints) != 1 || q.Constraints[0].Direct {
		t.Fatalf("constraints = %v", q.Constraints)
	}
	if q.Return != ReturnProvenance || q.ReturnVar != "b" {
		t.Fatalf("return = %v %q", q.Return, q.ReturnVar)
	}
}

func TestParseDefaults(t *testing.T) {
	q, err := Parse(`MATCH x = "reformat"`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Return != ReturnBindings || len(q.Constraints) != 0 {
		t.Fatalf("defaults wrong: %+v", q)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`FIND x = "a"`,
		`MATCH`,
		`MATCH = "a"`,
		`MATCH 1x = "a"`,
		`MATCH x = a`,
		`MATCH x = ""`,
		`MATCH x = "a", x = "b"`,
		`MATCH x = "a" WHERE x >> x`,
		`MATCH x = "a" WHERE y ~> x`,
		`MATCH x = "a" RETURN everything`,
		`MATCH x = "a" RETURN provenance(y)`,
		`MATCH x = "a" RETURN provenance(x) WHERE x ~> x`,
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestParseCommaInsidePhrase(t *testing.T) {
	q, err := Parse(`MATCH a = "combine, disorder", b = "omim"`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Vars["a"]) != 2 {
		t.Fatalf("a tokens = %v", q.Vars["a"])
	}
	_ = q
}

// The paper's example query: "find executions where Expand SNP Set was
// executed before Query OMIM and return the provenance information for
// the latter".
func TestEvaluatePaperQuery(t *testing.T) {
	spec, e := diseaseExec(t)
	ev := NewEvaluator(spec)
	q, err := Parse(`MATCH a = "expand snp", b = "query omim" WHERE a ~> b RETURN provenance(b)`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ans, err := ev.Evaluate(q, e)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if len(ans.Bindings) != 1 {
		t.Fatalf("bindings = %v", ans.Bindings)
	}
	b := ans.Bindings[0]
	if b["a"] != "S2:M3" || b["b"] != "S5:M6" {
		t.Fatalf("binding = %v", b)
	}
	if len(ans.Provenance) != 1 {
		t.Fatalf("provenance count = %d", len(ans.Provenance))
	}
	prov := ans.Provenance[0]
	// Provenance of M6's output includes M5, M3 and I but not M7.
	for _, want := range []string{"I", "S2:M3", "S4:M5", "S5:M6"} {
		if prov.Node(want) == nil {
			t.Errorf("provenance missing %s", want)
		}
	}
	if prov.Node("S6:M7") != nil {
		t.Error("provenance includes unrelated M7")
	}
}

func TestEvaluateDirectEdgeConstraint(t *testing.T) {
	spec, e := diseaseExec(t)
	ev := NewEvaluator(spec)
	// M5 -> M6 is a direct execution edge; M3 -> M6 is not.
	q, _ := Parse(`MATCH a = "generate database", b = "query omim" WHERE a -> b`)
	ans, err := ev.Evaluate(q, e)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if len(ans.Bindings) != 1 {
		t.Fatalf("bindings = %v", ans.Bindings)
	}
	q2, _ := Parse(`MATCH a = "expand snp", b = "query omim" WHERE a -> b`)
	ans2, _ := ev.Evaluate(q2, e)
	if len(ans2.Bindings) != 0 {
		t.Fatalf("indirect pair matched direct constraint: %v", ans2.Bindings)
	}
}

func TestEvaluateNoMatches(t *testing.T) {
	spec, e := diseaseExec(t)
	ev := NewEvaluator(spec)
	q, _ := Parse(`MATCH a = "nonexistent thing"`)
	ans, err := ev.Evaluate(q, e)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if len(ans.Bindings) != 0 {
		t.Fatalf("bindings = %v", ans.Bindings)
	}
}

func TestEvaluateReturnNodes(t *testing.T) {
	spec, e := diseaseExec(t)
	ev := NewEvaluator(spec)
	q, _ := Parse(`MATCH a = "search" RETURN nodes`)
	ans, err := ev.Evaluate(q, e)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	// "search" matches M10 (Search Private Datasets) and M12 (Search
	// PubMed Central).
	if strings.Join(ans.Nodes, ",") != "S10:M12,S13:M10" {
		t.Fatalf("nodes = %v", ans.Nodes)
	}
}

func TestEvaluateReturnDownstream(t *testing.T) {
	spec, e := diseaseExec(t)
	ev := NewEvaluator(spec)
	q, _ := Parse(`MATCH a = "reformat" RETURN downstream(a)`)
	ans, err := ev.Evaluate(q, e)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if len(ans.Downstream) != 1 {
		t.Fatalf("downstream sets = %d", len(ans.Downstream))
	}
	attrs := make(map[string]bool)
	for _, id := range ans.Downstream[0] {
		attrs[e.Items[id].Attr] = true
	}
	for _, want := range []string{"reformatted", "summary", "updated_notes", "prognosis"} {
		if !attrs[want] {
			t.Errorf("downstream missing %s (got %v)", want, attrs)
		}
	}
	if attrs["articles"] {
		t.Error("downstream includes upstream item")
	}
}

func TestEvaluateWithPrivacyZoomsOut(t *testing.T) {
	spec, e := diseaseExec(t)
	ev := NewEvaluator(spec)
	pol := privacy.NewPolicy(spec.ID)
	pol.ViewGrants[privacy.Registered] = []string{"W2"} // no W4 detail
	// Querying for "query omim" at Registered: M6 executes inside W4,
	// which is collapsed into S3:M4 — no match.
	q, _ := Parse(`MATCH b = "query omim"`)
	ans, err := evaluateWithPrivacy(ev, q, e, pol, privacy.Registered)
	if err != nil {
		t.Fatalf("evaluateWithPrivacy: %v", err)
	}
	if !ans.ZoomedOut {
		t.Fatal("not marked zoomed out")
	}
	if len(ans.Bindings) != 0 {
		t.Fatalf("hidden module matched: %v", ans.Bindings)
	}
	// But the collapsed composite M4 is matchable.
	q2, _ := Parse(`MATCH b = "consult external"`)
	ans2, err := evaluateWithPrivacy(ev, q2, e, pol, privacy.Registered)
	if err != nil {
		t.Fatalf("evaluateWithPrivacy: %v", err)
	}
	if len(ans2.Bindings) != 1 || ans2.Bindings[0]["b"] != "S3:M4" {
		t.Fatalf("composite binding = %v", ans2.Bindings)
	}
}

func TestEvaluateWithPrivacyMasksValues(t *testing.T) {
	spec, e := diseaseExec(t)
	ev := NewEvaluator(spec)
	pol := privacy.NewPolicy(spec.ID)
	pol.DataLevels["snps"] = privacy.Owner
	h, _ := workflow.NewHierarchy(spec)
	for _, w := range h.All() {
		pol.ViewGrants[privacy.Public] = append(pol.ViewGrants[privacy.Public], w)
	}
	q, _ := Parse(`MATCH a = "expand snp", b = "query omim" WHERE a ~> b RETURN provenance(b)`)
	ans, err := evaluateWithPrivacy(ev, q, e, pol, privacy.Public)
	if err != nil {
		t.Fatalf("evaluateWithPrivacy: %v", err)
	}
	if len(ans.Provenance) != 1 {
		t.Fatalf("provenance = %d", len(ans.Provenance))
	}
	for _, it := range ans.Provenance[0].Items {
		if it.Attr == "snps" && (!it.Redacted || it.Value != "") {
			t.Fatalf("snps not masked in provenance answer: %+v", it)
		}
	}
}

func TestEvaluateWithPrivacyModulePrivacy(t *testing.T) {
	spec, e := diseaseExec(t)
	ev := NewEvaluator(spec)
	pol := privacy.NewPolicy(spec.ID)
	pol.ModuleLevels["M6"] = privacy.Owner
	h, _ := workflow.NewHierarchy(spec)
	for _, w := range h.All() {
		pol.ViewGrants[privacy.Public] = append(pol.ViewGrants[privacy.Public], w)
	}
	q, _ := Parse(`MATCH b = "query omim"`)
	ans, err := evaluateWithPrivacy(ev, q, e, pol, privacy.Public)
	if err != nil {
		t.Fatalf("evaluateWithPrivacy: %v", err)
	}
	if len(ans.Bindings) != 0 {
		t.Fatalf("module-private execution matched: %v", ans.Bindings)
	}
}

func TestAnswerRender(t *testing.T) {
	spec, e := diseaseExec(t)
	ev := NewEvaluator(spec)
	q, _ := Parse(`MATCH a = "reformat"`)
	ans, _ := ev.Evaluate(q, e)
	out := ans.Render()
	if !strings.Contains(out, "1 binding") || !strings.Contains(out, "a=S11:M13") {
		t.Fatalf("Render:\n%s", out)
	}
}

// Property: bindings always satisfy their constraints.
func TestBindingsSatisfyConstraints(t *testing.T) {
	spec, e := diseaseExec(t)
	ev := NewEvaluator(spec)
	queries := []string{
		`MATCH a = "query", b = "combine" WHERE a ~> b`,
		`MATCH a = "search", b = "summarize" WHERE a ~> b`,
		`MATCH a = "generate", b = "query" WHERE a -> b`,
	}
	g := e.Graph()
	for _, qs := range queries {
		q, err := Parse(qs)
		if err != nil {
			t.Fatalf("Parse(%s): %v", qs, err)
		}
		ans, err := ev.Evaluate(q, e)
		if err != nil {
			t.Fatalf("Evaluate(%s): %v", qs, err)
		}
		for _, b := range ans.Bindings {
			for _, c := range q.Constraints {
				u, v := g.Lookup(b[c.X]), g.Lookup(b[c.Y])
				if c.Direct && !g.HasEdge(u, v) {
					t.Fatalf("%s: binding %v violates direct constraint", qs, b)
				}
				if !c.Direct && !g.Reachable(u, v) {
					t.Fatalf("%s: binding %v violates path constraint", qs, b)
				}
			}
		}
	}
}
