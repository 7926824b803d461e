package exec

import (
	"strings"
	"testing"

	"provpriv/internal/workflow"
)

func TestCollapseRootPrefixMatchesFig2(t *testing.T) {
	spec, e := runDisease(t)
	v, err := Collapse(e, spec, workflow.NewPrefix("W1"))
	if err != nil {
		t.Fatalf("Collapse: %v", err)
	}
	// Fig. 2: nodes I, S1:M1, S8:M2, O with edges I->S1:M1 {d0,d1},
	// I->S8:M2 {d2,d3,d4}, S1:M1->S8:M2 {d10}, S8:M2->O {d19}.
	want := []string{"I", "O", "S1:M1", "S8:M2"}
	if strings.Join(v.NodeIDs(), ",") != strings.Join(want, ",") {
		t.Fatalf("nodes = %v, want %v", v.NodeIDs(), want)
	}
	if len(v.Edges) != 4 {
		t.Fatalf("edges = %d (%s), want 4", len(v.Edges), v.ASCII())
	}
	if !edgeCarries(v, "I", "S1:M1", "d0") || !edgeCarries(v, "I", "S1:M1", "d1") {
		t.Fatalf("I->S1:M1 items wrong:\n%s", v.ASCII())
	}
	if !edgeCarries(v, "I", "S8:M2", "d2") {
		t.Fatalf("I->S8:M2 items wrong:\n%s", v.ASCII())
	}
	dis := findItemByAttr(e, "disorders")
	if !edgeCarries(v, "S1:M1", "S8:M2", dis.ID) {
		t.Fatalf("S1:M1->S8:M2 missing disorders item:\n%s", v.ASCII())
	}
	prog := findItemByAttr(e, "prognosis")
	if !edgeCarries(v, "S8:M2", "O", prog.ID) {
		t.Fatalf("S8:M2->O missing prognosis:\n%s", v.ASCII())
	}
}

func TestCollapseHidesInternalItems(t *testing.T) {
	spec, e := runDisease(t)
	v, err := Collapse(e, spec, workflow.NewPrefix("W1"))
	if err != nil {
		t.Fatalf("Collapse: %v", err)
	}
	// Internal items (snp_set, queries, articles...) must be invisible.
	for _, id := range v.ItemIDs() {
		attr := v.Items[id].Attr
		switch attr {
		case "snps", "ethnicity", "lifestyle", "family_history", "symptoms",
			"disorders", "prognosis":
		default:
			t.Errorf("hidden item %s (%s) visible in view", id, attr)
		}
	}
	// Producer of disorders is remapped to the collapsed node.
	dis := findItemByAttr(e, "disorders")
	if v.Items[dis.ID].Producer != "S1:M1" {
		t.Fatalf("disorders producer = %s, want S1:M1", v.Items[dis.ID].Producer)
	}
}

func TestCollapsePartialPrefix(t *testing.T) {
	spec, e := runDisease(t)
	v, err := Collapse(e, spec, workflow.NewPrefix("W1", "W2"))
	if err != nil {
		t.Fatalf("Collapse: %v", err)
	}
	// W2 expanded: M1 begin/end and M3 visible; M4 (sub W4 not in prefix)
	// collapsed to S3:M4; M2 collapsed to S8:M2.
	ids := v.NodeIDs()
	joined := strings.Join(ids, ",")
	for _, want := range []string{"S1:M1-begin", "S1:M1-end", "S2:M3", "S3:M4", "S8:M2"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("nodes = %v, missing %s", ids, want)
		}
	}
	if strings.Contains(joined, "S4:M5") || strings.Contains(joined, "M4-begin") {
		t.Fatalf("W4 internals leaked: %v", ids)
	}
}

func TestCollapseFullPrefixIsIdentityish(t *testing.T) {
	spec, e := runDisease(t)
	h, _ := workflow.NewHierarchy(spec)
	v, err := Collapse(e, spec, workflow.FullPrefix(h))
	if err != nil {
		t.Fatalf("Collapse: %v", err)
	}
	if len(v.Nodes) != len(e.Nodes) {
		t.Fatalf("full-prefix view dropped nodes: %d vs %d", len(v.Nodes), len(e.Nodes))
	}
	if len(v.Edges) != len(e.Edges) {
		t.Fatalf("full-prefix view dropped edges: %d vs %d", len(v.Edges), len(e.Edges))
	}
	if len(v.Items) != len(e.Items) {
		t.Fatalf("full-prefix view dropped items: %d vs %d", len(v.Items), len(e.Items))
	}
}

func TestCollapseRejectsBadPrefix(t *testing.T) {
	spec, e := runDisease(t)
	if _, err := Collapse(e, spec, workflow.NewPrefix("W1", "W4")); err == nil {
		t.Fatal("bad prefix accepted")
	}
}

// Collapse is public and may be handed an execution nobody validated: an
// edge naming an item the execution does not hold is an error, not a
// nil dereference.
func TestCollapseRejectsUnknownItem(t *testing.T) {
	spec, e := runDisease(t)
	broken := *e
	broken.Edges = append([]Edge(nil), e.Edges...)
	broken.Edges[0].Items = append([]string{"no-such-item"}, e.Edges[0].Items...)
	if _, err := Collapse(&broken, spec, workflow.NewPrefix("W1")); err == nil || !strings.Contains(err.Error(), "no-such-item") {
		t.Fatalf("err = %v, want one naming the unknown item", err)
	}
}

// Property: for every legal prefix, the collapsed view is a valid
// acyclic execution, its visible items are a subset of the full run's,
// and coarser prefixes reveal no more items than finer ones.
func TestCollapseMonotoneVisibility(t *testing.T) {
	spec, e := runDisease(t)
	h, _ := workflow.NewHierarchy(spec)
	visible := make(map[string]map[string]bool)
	for _, p := range workflow.Prefixes(h) {
		v, err := Collapse(e, spec, p)
		if err != nil {
			t.Fatalf("Collapse(%v): %v", p.IDs(), err)
		}
		if !v.Graph().IsAcyclic() {
			t.Fatalf("prefix %v: cyclic view", p.IDs())
		}
		set := make(map[string]bool)
		for _, id := range v.ItemIDs() {
			set[id] = true
			if e.Items[id] == nil {
				t.Fatalf("prefix %v: item %s not in original", p.IDs(), id)
			}
		}
		visible[strings.Join(p.IDs(), "+")] = set
	}
	// {W1} ⊆ {W1,W2} ⊆ {W1,W2,W4} etc.
	chain := []string{"W1", "W1+W2", "W1+W2+W4", "W1+W2+W3+W4"}
	for i := 0; i+1 < len(chain); i++ {
		small, big := visible[chain[i]], visible[chain[i+1]]
		for id := range small {
			if !big[id] {
				t.Fatalf("item %s visible under %s but not finer %s", id, chain[i], chain[i+1])
			}
		}
	}
}

func TestVisibleItems(t *testing.T) {
	spec, e := runDisease(t)
	items, err := VisibleItems(e, spec, workflow.NewPrefix("W1"))
	if err != nil {
		t.Fatalf("VisibleItems: %v", err)
	}
	// d0..d4 inputs + disorders + prognosis = 7.
	if len(items) != 7 {
		t.Fatalf("visible = %v, want 7 items", items)
	}
}
