package taint_test

// Engine-level tests of seed → propagate → sanitize on the paper's
// disease-susceptibility workflow (the fixture whose trace-string leak
// motivated the subsystem) and on hand-built pathological executions.

import (
	"strings"
	"testing"

	"provpriv/internal/datapriv"
	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/taint"
	"provpriv/internal/workflow"
)

// diseaseRun executes the Fig. 1 workflow with the exact inputs of
// examples/disease and the Section 3 policy (snps and family_history
// owner-only, disorders analyst-only).
func diseaseRun(t testing.TB) (*exec.Execution, *privacy.Policy) {
	t.Helper()
	spec := workflow.DiseaseSusceptibility()
	e, err := exec.NewRunner(spec, nil).Run("E1", map[string]exec.Value{
		"snps": "rs123,rs456", "ethnicity": "eth1", "lifestyle": "active",
		"family_history": "cardiac", "symptoms": "fatigue",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	pol := privacy.NewPolicy(spec.ID)
	pol.DataLevels["snps"] = privacy.Owner
	pol.DataLevels["family_history"] = privacy.Owner
	pol.DataLevels["disorders"] = privacy.Analyst
	return e, pol
}

func TestSanitizePublicRemovesProtectedValues(t *testing.T) {
	e, pol := diseaseRun(t)
	en := taint.NewEngine(pol, nil)
	masked, rep := en.Sanitize(e, privacy.Public)
	for id, it := range masked.Items {
		for _, raw := range []string{"rs123", "rs456", "cardiac"} {
			if strings.Contains(string(it.Value), raw) {
				t.Errorf("item %s (%s) leaks %q at Public: %q", id, it.Attr, raw, it.Value)
			}
		}
	}
	if rep.Rewritten == 0 {
		t.Fatalf("expected rewritten derived items, report = %+v", rep)
	}
	// The final output must survive as a rewritten trace, not be
	// redacted wholesale — that is the utility the rewrite buys.
	for _, id := range masked.ItemIDs() {
		if masked.Items[id].Attr == "prognosis" && masked.Items[id].Redacted {
			t.Fatalf("prognosis fully redacted; rewrite should have sufficed")
		}
	}
	if rep.Total() != len(e.Items) {
		t.Fatalf("report total %d != %d items", rep.Total(), len(e.Items))
	}
}

func TestSanitizeOwnerSeesEverything(t *testing.T) {
	e, pol := diseaseRun(t)
	masked, rep := taint.NewEngine(pol, nil).Sanitize(e, privacy.Owner)
	if rep.Visible != len(e.Items) || rep.Rewritten != 0 || rep.Redacted != 0 {
		t.Fatalf("owner report = %+v", rep)
	}
	for id, it := range e.Items {
		if masked.Items[id].Value != it.Value {
			t.Fatalf("owner value of %s changed: %q != %q", id, masked.Items[id].Value, it.Value)
		}
	}
}

func TestLabelsLevelFiltering(t *testing.T) {
	e, pol := diseaseRun(t)
	set := taint.NewEngine(pol, nil).Analyze(e)
	var prognosis string
	for _, id := range e.ItemIDs() {
		if e.Items[id].Attr == "prognosis" {
			prognosis = id
		}
	}
	if prognosis == "" {
		t.Fatal("no prognosis item")
	}
	attrsAt := func(lvl privacy.Level) map[string]bool {
		out := make(map[string]bool)
		for _, l := range set.LabelsFor(prognosis, lvl) {
			out[l.Attr] = true
		}
		return out
	}
	pub := attrsAt(privacy.Public)
	if !pub["snps"] || !pub["family_history"] || !pub["disorders"] {
		t.Fatalf("public labels on prognosis = %v", pub)
	}
	// Analysts may see disorders but not the owner-only attributes.
	an := attrsAt(privacy.Analyst)
	if an["disorders"] || !an["snps"] {
		t.Fatalf("analyst labels on prognosis = %v", an)
	}
	if got := set.LabelsFor(prognosis, privacy.Owner); got != nil {
		t.Fatalf("owner labels = %v", got)
	}
	if set.Items() == 0 || set.Labels() == 0 {
		t.Fatalf("empty set: items=%d labels=%d", set.Items(), set.Labels())
	}
}

func TestRewriteUsesGeneralization(t *testing.T) {
	e, pol := diseaseRun(t)
	h := &datapriv.Hierarchy{
		Attr: "snps",
		Levels: []map[exec.Value]exec.Value{
			{"rs123,rs456": "chr7-region"},
			{"chr7-region": "genome"},
		},
	}
	en := taint.NewEngine(pol, map[string]taint.Generalizer{"snps": h})
	masked, _ := en.Sanitize(e, privacy.Public)
	var sawGeneralized bool
	for id, it := range masked.Items {
		if strings.Contains(string(it.Value), "rs123") {
			t.Fatalf("item %s still embeds raw snps: %q", id, it.Value)
		}
		if it.Attr != "snps" && strings.Contains(string(it.Value), "genome") {
			sawGeneralized = true
		}
	}
	if !sawGeneralized {
		t.Fatal("no derived trace embeds the generalized snps value")
	}
}

// twoNodeExec builds n1 --d1--> n2 with d1 (attr secret) produced by n1
// and d2 (attr out) by n2, the minimal propagation topology.
func twoNodeExec(secret, derived exec.Value) *exec.Execution {
	return &exec.Execution{
		ID: "E", SpecID: "S",
		Nodes: []*exec.Node{{ID: "n1"}, {ID: "n2"}},
		Edges: []exec.Edge{{From: "n1", To: "n2", Items: []string{"d1"}}},
		Items: map[string]*exec.DataItem{
			"d1": {ID: "d1", Attr: "secret", Value: secret, Producer: "n1"},
			"d2": {ID: "d2", Attr: "out", Value: derived, Producer: "n2"},
		},
	}
}

// A raw value that survives its own mask token forces the engine to
// give up on rewriting and redact the whole derived value.
func TestRewriteFallsBackToRedaction(t *testing.T) {
	e := twoNodeExec(":*]", "f(:*])")
	pol := privacy.NewPolicy("S")
	pol.DataLevels["secret"] = privacy.Owner
	masked, rep := taint.NewEngine(pol, nil).Sanitize(e, privacy.Public)
	if rep.TaintRedacted != 1 {
		t.Fatalf("report = %+v, want TaintRedacted 1", rep)
	}
	d2 := masked.Items["d2"]
	if !d2.Redacted || d2.Value != "" {
		t.Fatalf("d2 not redacted: %+v", d2)
	}
}

func TestOverlappingRawsLongestFirst(t *testing.T) {
	e := &exec.Execution{
		ID: "E", SpecID: "S",
		Nodes: []*exec.Node{{ID: "n1"}, {ID: "n2"}},
		Edges: []exec.Edge{{From: "n1", To: "n2", Items: []string{"d1", "d2"}}},
		Items: map[string]*exec.DataItem{
			"d1": {ID: "d1", Attr: "a", Value: "ab", Producer: "n1"},
			"d2": {ID: "d2", Attr: "b", Value: "abc", Producer: "n1"},
			"d3": {ID: "d3", Attr: "out", Value: "f(abc)", Producer: "n2"},
		},
	}
	pol := privacy.NewPolicy("S")
	pol.DataLevels["a"] = privacy.Owner
	pol.DataLevels["b"] = privacy.Owner
	masked, rep := taint.NewEngine(pol, nil).Sanitize(e, privacy.Public)
	// "abc" must be replaced before "ab", otherwise a "c" remnant plus
	// the a-token would garble the trace and leak structure.
	if got := masked.Items["d3"].Value; got != "f([b:*])" {
		t.Fatalf("d3 = %q", got)
	}
	if rep.Rewritten != 1 || rep.Redacted != 2 {
		t.Fatalf("report = %+v", rep)
	}
}

// On a (never valid, but defensive) cyclic execution the engine must
// over-taint rather than under-taint.
func TestCyclicExecutionOverTaints(t *testing.T) {
	e := twoNodeExec("topsecret", "f(topsecret)")
	e.Edges = append(e.Edges, exec.Edge{From: "n2", To: "n1", Items: []string{"d2"}})
	pol := privacy.NewPolicy("S")
	pol.DataLevels["secret"] = privacy.Owner
	en := taint.NewEngine(pol, nil)
	set := en.Analyze(e)
	if set.Items() != len(e.Items) {
		t.Fatalf("cyclic fallback tainted %d of %d items", set.Items(), len(e.Items))
	}
	masked, _ := en.Apply(e, privacy.Public, set)
	if strings.Contains(string(masked.Items["d2"].Value), "topsecret") {
		t.Fatalf("leak through cyclic graph: %q", masked.Items["d2"].Value)
	}
}

func TestApplyDeepCopyNoAliasing(t *testing.T) {
	e, pol := diseaseRun(t)
	en := taint.NewEngine(pol, nil)
	origEdgeItems := append([]string(nil), e.Edges[0].Items...)
	origNodeFrames := append([]exec.Frame(nil), e.Nodes[len(e.Nodes)-1].Frames...)
	masked, _ := en.Sanitize(e, privacy.Public)
	// Vandalize every mutable region of the masked copy.
	for _, n := range masked.Nodes {
		n.ID = "x-" + n.ID
		for i := range n.Frames {
			n.Frames[i].Proc = "vandal"
		}
	}
	for i := range masked.Edges {
		masked.Edges[i].From = "vandal"
		for j := range masked.Edges[i].Items {
			masked.Edges[i].Items[j] = "vandal"
		}
	}
	for _, it := range masked.Items {
		it.Value = "vandal"
		it.Redacted = false
	}
	if e.Edges[0].From == "vandal" || e.Edges[0].Items[0] != origEdgeItems[0] {
		t.Fatal("edge state aliased into the original execution")
	}
	for i, f := range e.Nodes[len(e.Nodes)-1].Frames {
		if f != origNodeFrames[i] {
			t.Fatal("node frames aliased into the original execution")
		}
	}
	for id, it := range e.Items {
		if it.Value == "vandal" {
			t.Fatalf("item %s aliased into the original execution", id)
		}
	}
}

// A nil set degrades to attribute-local masking: the protected item is
// redacted but its raw value is served verbatim inside derived traces —
// exactly the pre-taint hole, which is why the repository never passes one.
func TestNilSetIsAttributeLocalOnly(t *testing.T) {
	e, pol := diseaseRun(t)
	masked, rep := taint.NewEngine(pol, nil).Apply(e, privacy.Public, nil)
	if rep.Rewritten != 0 || rep.TaintRedacted != 0 {
		t.Fatalf("nil set must not taint: %+v", rep)
	}
	var leaked bool
	for _, it := range masked.Items {
		if it.Attr == "snps" && !it.Redacted {
			t.Fatalf("protected item not masked: %+v", it)
		}
		if strings.Contains(string(it.Value), "rs123") {
			leaked = true
		}
	}
	if !leaked {
		t.Fatal("expected the documented trace leak without taint propagation")
	}
}
