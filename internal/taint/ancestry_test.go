package taint

// Taint analysis reads an execution's structure through the item ancestry
// of its shape (exec.Ancestry), which internal/repo derives once per shape
// and shares among every execution of it. This file holds the analysis
// (Set.seed, what MaskInPlace runs for its level and Analyze for Public),
// at every level, to the analysis as it was before the split — graph,
// closure and producer lookups derived from the execution at hand, per
// call, every item's labels listed — kept here as the executable spec.

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/graph"
	"provpriv/internal/privacy"
	"provpriv/internal/workload"
)

// referenceSet is what the analysis held before a Set kept its sources
// only: every item's labels, and the seeds the sanitizer compiled.
type referenceSet struct {
	byItem map[string][]Label
	seeds  []Label
	labels int
}

// analyzeReference is Engine.Analyze before the structural half moved to
// exec.Ancestry, seeding from the attributes above level.
func analyzeReference(en *Engine, e *exec.Execution, level privacy.Level) referenceSet {
	set := referenceSet{byItem: make(map[string][]Label)}
	protected := make(map[string]privacy.Level)
	for a, req := range en.Policy.DataLevels {
		if req > level {
			protected[a] = req
		}
	}
	if len(protected) == 0 {
		return set
	}
	ids := e.ItemIDs()
	for _, id := range ids {
		it := e.Items[id]
		req, ok := protected[it.Attr]
		if !ok || it.Redacted || it.Value == "" {
			continue
		}
		set.seeds = append(set.seeds, Label{ItemID: id, Attr: it.Attr, Required: req, Raw: it.Value})
	}
	if len(set.seeds) == 0 {
		return set
	}
	g := e.Graph()
	cl, err := graph.NewClosure(g)
	if err != nil {
		for id := range e.Items {
			set.byItem[id] = append([]Label(nil), set.seeds...)
			set.labels += len(set.seeds)
		}
		return set
	}
	for _, id := range ids {
		prod := g.Lookup(e.Items[id].Producer)
		for _, l := range set.seeds {
			src := g.Lookup(e.Items[l.ItemID].Producer)
			if src >= 0 && prod >= 0 && cl.Reach(src, prod) {
				set.byItem[id] = append(set.byItem[id], l)
				set.labels++
			}
		}
	}
	return set
}

// seeded is the analysis MaskInPlace masks with: st's sources above level,
// read against the item ancestry of st's shape.
func seeded(en *Engine, st *exec.Stored, level privacy.Level) *Set {
	set := new(Set)
	set.seed(en, st, level)
	return set
}

// sameAnalysis reports how set, an analysis of e for level, differs from
// want: in any item's labels, in the compiled patterns, or in the counts.
func sameAnalysis(set *Set, e *exec.Execution, level privacy.Level, want referenceSet) string {
	for _, id := range e.ItemIDs() {
		if got := set.LabelsFor(id, level); !reflect.DeepEqual(got, want.byItem[id]) {
			return fmt.Sprintf("item %s: labels %v, reference %v", id, got, want.byItem[id])
		}
	}
	var wantPats []pattern
	for _, l := range dedupeLabels(want.seeds) {
		wantPats = append(wantPats, pattern{attr: l.Attr, raw: string(l.Raw), required: l.Required})
	}
	var gotPats []pattern
	if r := set.Replacer(); r != nil {
		gotPats = r.pats
	}
	if !reflect.DeepEqual(gotPats, wantPats) {
		return fmt.Sprintf("patterns %v, reference %v", gotPats, wantPats)
	}
	if set.Items() != len(want.byItem) || set.Labels() != want.labels {
		return fmt.Sprintf("%d items / %d labels, reference %d / %d", set.Items(), set.Labels(), len(want.byItem), want.labels)
	}
	return ""
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
		shapes := exec.NewShapes() // A's shape, and so its ancestry, is used for both
		shapes.Intern(a)
		for _, e := range []*exec.Execution{a, b} {
			want := analyzeReference(en, e, privacy.Public)
			if diff := sameAnalysis(en.Analyze(e), e, privacy.Public, want); diff != "" {
				t.Errorf("seed %d, %s: Analyze differs from the per-execution analysis: %s", seed, e.ID, diff)
			}
			// Scoped to a level, the analysis seeds only above it.
			for _, lvl := range diffLevels {
				if diff := sameAnalysis(seeded(en, shapes.Intern(e), lvl), e, lvl, analyzeReference(en, e, lvl)); diff != "" {
					t.Errorf("seed %d, %s @%s: the analysis over the shape's ancestry differs from the per-execution analysis: %s", seed, e.ID, lvl, diff)
				}
			}
			labelled += want.labels
		}
		// A redacted or empty source is no seed: the seeds are chosen per
		// execution, from its values, not per shape.
		c := *b
		c.Items = make(map[string]*exec.DataItem, len(b.Items))
		for i, id := range b.ItemIDs() {
			cp := *b.Items[id]
			if _, protected := pol.DataLevels[cp.Attr]; protected && i%2 == 0 {
				cp.Value = ""
			} else if protected && i%4 == 1 {
				cp.Redacted = true
			}
			c.Items[id] = &cp
		}
		if diff := sameAnalysis(seeded(en, shapes.Intern(&c), privacy.Public), &c, privacy.Public, analyzeReference(en, &c, privacy.Public)); diff != "" {
			t.Errorf("seed %d: with emptied and redacted sources the analysis differs from the per-execution analysis: %s", seed, diff)
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
	got := en.Analyze(&cyclic)
	if diff := sameAnalysis(got, &cyclic, privacy.Public, analyzeReference(en, &cyclic, privacy.Public)); diff != "" {
		t.Fatalf("analysis of a cyclic execution differs from the per-execution analysis: %s", diff)
	}
	if got.Items() != len(cyclic.Items) || got.Labels() == 0 {
		t.Fatalf("cyclic execution: %d of %d items labelled, %d labels", got.Items(), len(cyclic.Items), got.Labels())
	}
}
