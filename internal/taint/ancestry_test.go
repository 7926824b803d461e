package taint

// Taint analysis reads an execution's structure through the item ancestry
// of its shape (exec.Ancestry), which internal/repo derives once per shape
// and shares among every execution of it. This file holds AnalyzeIn to the
// analysis as it was before the split — graph, closure and producer lookups
// derived from the execution at hand, per call — kept here as the
// executable spec.

import (
	"reflect"
	"sort"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/graph"
	"provpriv/internal/privacy"
	"provpriv/internal/workload"
)

// analyzeReference is Engine.Analyze before the structural half moved to
// exec.Ancestry.
func analyzeReference(en *Engine, e *exec.Execution) *Set {
	protected := en.Policy.ProtectedAttrs(privacy.Public)
	set := &Set{byItem: make(map[string][]Label)}
	if len(protected) == 0 {
		return set
	}
	ids := e.ItemIDs()
	var labels []Label
	for _, id := range ids {
		it := e.Items[id]
		req, ok := protected[it.Attr]
		if !ok || it.Redacted || it.Value == "" {
			continue
		}
		labels = append(labels, Label{ItemID: id, Attr: it.Attr, Required: req, Raw: it.Value})
	}
	if len(labels) == 0 {
		return set
	}
	g := e.Graph()
	cl, err := graph.NewClosure(g)
	if err != nil {
		for id := range e.Items {
			set.byItem[id] = append([]Label(nil), labels...)
			set.labels += len(labels)
		}
		set.compile(labels)
		return set
	}
	for _, id := range ids {
		prod := g.Lookup(e.Items[id].Producer)
		for _, l := range labels {
			src := g.Lookup(e.Items[l.ItemID].Producer)
			if src >= 0 && prod >= 0 && cl.Reach(src, prod) {
				set.byItem[id] = append(set.byItem[id], l)
				set.labels++
			}
		}
	}
	set.compile(labels)
	return set
}

// taintedRuns is the property corpus of property_test.go — random spec,
// random policy hardened with one owner-only workflow input — with two runs
// per seed on different inputs: the same shape, different values.
func taintedRuns(t *testing.T, seed int64) (a, b *exec.Execution, pol *privacy.Policy) {
	t.Helper()
	s, err := workload.RandomSpec(workload.SpecConfig{Seed: seed, Depth: 3, Fanout: 2, Chain: 4, SkipProb: 0.3})
	if err != nil {
		t.Fatalf("seed %d: RandomSpec: %v", seed, err)
	}
	if pol, err = workload.RandomPolicy(s, seed); err != nil {
		t.Fatalf("seed %d: RandomPolicy: %v", seed, err)
	}
	inputs := workload.RandomInputs(s, seed)
	attrs := make([]string, 0, len(inputs))
	for attr := range inputs {
		attrs = append(attrs, attr)
	}
	sort.Strings(attrs)
	pol.DataLevels[attrs[0]] = privacy.Owner
	if a, err = exec.NewRunner(s, nil).Run("A", inputs); err != nil {
		t.Fatalf("seed %d: Run: %v", seed, err)
	}
	if b, err = exec.NewRunner(s, nil).Run("B", workload.RandomInputs(s, seed+1000)); err != nil {
		t.Fatalf("seed %d: Run: %v", seed, err)
	}
	return a, b, pol
}

func TestAnalyzeInMatchesPerExecutionAnalysis(t *testing.T) {
	labelled := 0
	for seed := int64(0); seed < 12; seed++ {
		a, b, pol := taintedRuns(t, seed)
		if !exec.SameShape(a, b) {
			t.Fatalf("seed %d: two runs of one spec differ in shape", seed)
		}
		en := NewEngine(pol, nil)
		anc := exec.NewAncestry(a) // derived from A, used for both
		for _, e := range []*exec.Execution{a, b} {
			want := analyzeReference(en, e)
			if got := en.AnalyzeIn(e, anc); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d, %s: AnalyzeIn over the shape's ancestry differs from the per-execution analysis", seed, e.ID)
			}
			if got := en.Analyze(e); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d, %s: Analyze differs from the per-execution analysis", seed, e.ID)
			}
			labelled += want.Labels()
		}
		// A redacted or empty source is no seed: the seeds are chosen per
		// execution, from its values, not per shape.
		c := *b
		c.Items = make(map[string]*exec.DataItem, len(b.Items))
		for i, id := range b.ItemIDs() {
			cp := *b.Items[id]
			if _, protected := pol.DataLevels[cp.Attr]; protected && i%2 == 0 {
				cp.Value = ""
			}
			c.Items[id] = &cp
		}
		if got, want := en.AnalyzeIn(&c, anc), analyzeReference(en, &c); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: with emptied sources AnalyzeIn differs from the per-execution analysis", seed)
		}
	}
	if labelled == 0 {
		t.Fatal("corpus produced no taint label: nothing was compared")
	}
}

// TestAnalyzeInOverTaintsACyclicExecution: a cycle (AddExecution admits
// none) leaves no provenance order to trust, so every item carries every
// label, as before.
func TestAnalyzeInOverTaintsACyclicExecution(t *testing.T) {
	a, _, pol := taintedRuns(t, 3)
	cyclic := *a
	last := a.Edges[len(a.Edges)-1]
	cyclic.Edges = append(append([]exec.Edge(nil), a.Edges...), exec.Edge{From: last.To, To: a.Edges[0].From, Items: last.Items})
	if cyclic.Validate() == nil {
		t.Fatal("fixture is not cyclic")
	}
	en := NewEngine(pol, nil)
	got, want := en.Analyze(&cyclic), analyzeReference(en, &cyclic)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("analysis of a cyclic execution differs from the per-execution analysis")
	}
	if got.Items() != len(cyclic.Items) || got.Labels() == 0 {
		t.Fatalf("cyclic execution: %d of %d items labelled, %d labels", got.Items(), len(cyclic.Items), got.Labels())
	}
}
