package workflow

import (
	"strings"
	"testing"
)

func mustExpand(t *testing.T, s *Spec, ids ...string) *View {
	t.Helper()
	v, err := Expand(s, NewPrefix(ids...))
	if err != nil {
		t.Fatalf("Expand(%v): %v", ids, err)
	}
	return v
}

func TestExpandRootPrefixIsUnexpanded(t *testing.T) {
	s := DiseaseSusceptibility()
	v := mustExpand(t, s, "W1")
	want := []string{"I", "M1", "M2", "O"}
	got := v.ModuleIDs()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("modules = %v, want %v", got, want)
	}
	g := v.Graph()
	if !g.HasEdge(g.Lookup("M1"), g.Lookup("M2")) {
		t.Fatal("edge M1->M2 missing in root view")
	}
}

func TestExpandW1W2(t *testing.T) {
	// Paper: prefix {W1,W2} replaces M1 with W2's contents (M3, M4).
	s := DiseaseSusceptibility()
	v := mustExpand(t, s, "W1", "W2")
	ids := strings.Join(v.ModuleIDs(), ",")
	if ids != "I,M2,M3,M4,O" {
		t.Fatalf("modules = %s, want I,M2,M3,M4,O", ids)
	}
	g := v.Graph()
	// I feeds M3 (entry of W2 for snps/ethnicity); M4 (exit for
	// disorders) feeds M2.
	if !g.HasEdge(g.Lookup("I"), g.Lookup("M3")) {
		t.Fatal("edge I->M3 missing")
	}
	if !g.HasEdge(g.Lookup("M4"), g.Lookup("M2")) {
		t.Fatal("edge M4->M2 missing")
	}
	if g.Lookup("M1") != -1 {
		t.Fatal("M1 still present after expansion")
	}
}

func TestFullExpansionMatchesPaper(t *testing.T) {
	// Section 2: the full expansion "yields a workflow with module names
	// I,O,M3,and M5−M15 and whose edges include one from M3 to M5 and
	// another from M8 to M9".
	s := DiseaseSusceptibility()
	h, _ := NewHierarchy(s)
	v, err := Expand(s, FullPrefix(h))
	if err != nil {
		t.Fatalf("Expand full: %v", err)
	}
	got := v.ModuleIDs()
	want := []string{"I", "M10", "M11", "M12", "M13", "M14", "M15", "M3", "M5", "M6", "M7", "M8", "M9", "O"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("modules = %v, want %v", got, want)
	}
	g := v.Graph()
	if !g.HasEdge(g.Lookup("M3"), g.Lookup("M5")) {
		t.Fatal("edge M3->M5 missing in full expansion")
	}
	if !g.HasEdge(g.Lookup("M8"), g.Lookup("M9")) {
		t.Fatal("edge M8->M9 missing in full expansion")
	}
	if !g.IsAcyclic() {
		t.Fatal("full expansion not acyclic")
	}
}

func TestExpandRejectsBadPrefix(t *testing.T) {
	s := DiseaseSusceptibility()
	if _, err := Expand(s, NewPrefix("W1", "W4")); err == nil {
		t.Fatal("non-closed prefix accepted")
	}
	if _, err := Expand(s, NewPrefix("W2")); err == nil {
		t.Fatal("rootless prefix accepted")
	}
}

func TestExpandPreservesDataLabels(t *testing.T) {
	s := DiseaseSusceptibility()
	v := mustExpand(t, s, "W1", "W2")
	var found bool
	for _, e := range v.Edges {
		if e.From == "I" && e.To == "M3" {
			found = true
			joined := strings.Join(e.Data, ",")
			if joined != "ethnicity,snps" {
				t.Fatalf("I->M3 data = %v", e.Data)
			}
		}
	}
	if !found {
		t.Fatal("I->M3 edge not found")
	}
}

func TestExpandModulePaths(t *testing.T) {
	s := DiseaseSusceptibility()
	h, _ := NewHierarchy(s)
	v, _ := Expand(s, FullPrefix(h))
	m8 := v.Module("M8")
	if m8 == nil {
		t.Fatal("M8 missing")
	}
	if strings.Join(m8.Path, "/") != "W1/W2/W4" {
		t.Fatalf("M8 path = %v, want W1/W2/W4", m8.Path)
	}
	m9 := v.Module("M9")
	if strings.Join(m9.Path, "/") != "W1/W3" {
		t.Fatalf("M9 path = %v, want W1/W3", m9.Path)
	}
}

// Property: every legal prefix yields an acyclic view
// whose atomic modules are a subset of the full expansion's.
func TestAllPrefixViewsAcyclicAndNested(t *testing.T) {
	s := DiseaseSusceptibility()
	h, _ := NewHierarchy(s)
	full, _ := Expand(s, FullPrefix(h))
	fullSet := make(map[string]bool)
	for _, fm := range full.Modules {
		fullSet[fm.Module.ID] = true
	}
	for _, p := range Prefixes(h) {
		v, err := Expand(s, p)
		if err != nil {
			t.Fatalf("Expand(%v): %v", p.IDs(), err)
		}
		if !v.Graph().IsAcyclic() {
			t.Fatalf("prefix %v: cyclic view", p.IDs())
		}
		for _, fm := range v.Modules {
			if fm.Module.Kind == Atomic && !fullSet[fm.Module.ID] {
				t.Fatalf("prefix %v: atomic module %s not in full expansion", p.IDs(), fm.Module.ID)
			}
		}
	}
}

func TestViewRenderings(t *testing.T) {
	s := DiseaseSusceptibility()
	v := mustExpand(t, s, "W1")
	ascii := v.ASCII()
	if !strings.Contains(ascii, "M1 -> M2") {
		t.Fatalf("ASCII missing edge:\n%s", ascii)
	}
	dot := v.DOT()
	for _, want := range []string{"doubleoctagon", `"I" -> "M1"`, "disorders"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestExpandTiny(t *testing.T) {
	s := tinySpec(t)
	v := mustExpand(t, s, "R", "S")
	ids := strings.Join(v.ModuleIDs(), ",")
	if ids != "I,O,a,b" {
		t.Fatalf("modules = %s", ids)
	}
	g := v.Graph()
	for _, e := range [][2]string{{"I", "a"}, {"a", "b"}, {"b", "O"}} {
		if !g.HasEdge(g.Lookup(e[0]), g.Lookup(e[1])) {
			t.Fatalf("edge %s->%s missing", e[0], e[1])
		}
	}
}
