package structpriv

import (
	"testing"

	"provpriv/internal/graph"
)

func TestHideByClusterGroups(t *testing.T) {
	g := w3Graph()
	// Two pairs with disjoint endpoints; M13 lies on the M12→M14 path,
	// so the second group's convexify interacts with the first group's
	// quotient node. Whatever the grouping, both pairs must end hidden.
	pairs := []Pair{
		{From: "M13", To: "M11"},
		{From: "M12", To: "M14"},
	}
	final, groups, err := HideByClusterGroups(g, pairs)
	if err != nil {
		t.Fatalf("HideByClusterGroups: %v", err)
	}
	if len(groups) == 0 {
		t.Fatal("no groups formed")
	}
	if !final.Metrics.HiddenOK {
		t.Fatal("some pair still inferable")
	}
	if !final.Graph.IsAcyclic() {
		t.Fatal("final quotient cyclic")
	}
}

func TestHideByClusterGroupsDisjointPairs(t *testing.T) {
	// Fully disjoint pairs on a wide graph produce separate clusters.
	g := graph.New()
	for _, n := range []string{"a1", "a2", "b1", "b2", "s", "t"} {
		g.AddNode(n)
	}
	e := func(x, y string) { g.AddEdge(g.Lookup(x), g.Lookup(y)) }
	e("s", "a1")
	e("a1", "a2")
	e("s", "b1")
	e("b1", "b2")
	e("a2", "t")
	e("b2", "t")
	final, groups, err := HideByClusterGroups(g, []Pair{
		{From: "a1", To: "a2"},
		{From: "b1", To: "b2"},
	})
	if err != nil {
		t.Fatalf("HideByClusterGroups: %v", err)
	}
	if len(groups) != 2 {
		t.Fatalf("groups = %v, want 2", groups)
	}
	if !final.Metrics.HiddenOK {
		t.Fatal("pairs visible")
	}
	// s and t stay individually visible.
	if final.Graph.Lookup("s") == graph.Invalid || final.Graph.Lookup("t") == graph.Invalid {
		t.Fatal("unrelated nodes absorbed")
	}
}

func TestHideByClusterGroupsValidation(t *testing.T) {
	g := w3Graph()
	if _, _, err := HideByClusterGroups(g, nil); err == nil {
		t.Fatal("empty pairs accepted")
	}
}
