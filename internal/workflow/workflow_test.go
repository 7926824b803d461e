package workflow

import (
	"strings"
	"testing"
)

// tinySpec: root R with source I -> composite C(->S) -> sink O;
// S contains a -> b.
func tinySpec(t *testing.T) *Spec {
	t.Helper()
	s, err := NewBuilder("tiny", "Tiny", "R").
		Workflow("R", "Root").
		Source("I", "x").
		Composite("C", "Do Stuff", "S", []string{"x"}, []string{"y"}).
		Sink("O", "y").
		Edge("I", "C", "x").
		Edge("C", "O", "y").
		Workflow("S", "Stuff").
		Atomic("a", "Step A", []string{"x"}, []string{"mid"}).
		Atomic("b", "Step B", []string{"mid"}, []string{"y"}).
		Edge("a", "b", "mid").
		Build()
	if err != nil {
		t.Fatalf("tinySpec: %v", err)
	}
	return s
}

func TestTinySpecValidates(t *testing.T) {
	s := tinySpec(t)
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestFindModule(t *testing.T) {
	s := tinySpec(t)
	m, w := s.FindModule("a")
	if m == nil || w == nil || w.ID != "S" || m.Name != "Step A" {
		t.Fatalf("FindModule(a) = %v in %v", m, w)
	}
	if m, _ := s.FindModule("nope"); m != nil {
		t.Fatal("FindModule(nope) found something")
	}
}

// FindModule and the hierarchy's Module table answer alike: on a valid
// spec for every module, and on one that repeats an id with the workflow
// whose id sorts first, whatever order the workflow map iterates in.
func TestModuleLookupsAgree(t *testing.T) {
	s := tinySpec(t)
	h, err := NewHierarchy(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"I", "C", "O", "a", "b", "nope", ""} {
		m, w := s.FindModule(id)
		hm, hw := h.Module(id)
		if m != hm || w != hw {
			t.Errorf("%q: FindModule = (%v, %v), Hierarchy.Module = (%v, %v)", id, m, w, hm, hw)
		}
	}

	dup := &Spec{ID: "dup", Root: "W1", Workflows: map[string]*Workflow{}}
	for _, wid := range []string{"W7", "W3", "W9", "W1", "W5", "W2", "W8"} {
		dup.Workflows[wid] = &Workflow{ID: wid, Modules: []*Module{{ID: "m", Name: wid}}}
	}
	dh, err := NewHierarchy(dup)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if m, w := dup.FindModule("m"); m == nil || m.Name != "W1" || w.ID != "W1" {
			t.Fatalf("FindModule(m) = %v in %v, want the module of W1", m, w)
		}
	}
	if m, w := dh.Module("m"); m == nil || m.Name != "W1" || w.ID != "W1" {
		t.Fatalf("Hierarchy.Module(m) = %v in %v, want the module of W1", m, w)
	}
}

func TestEntriesExits(t *testing.T) {
	s := tinySpec(t)
	sub := s.Workflows["S"]
	entries := sub.Entries("x")
	if len(entries) != 1 || entries[0].ID != "a" {
		t.Fatalf("Entries(x) = %v", entries)
	}
	exits := sub.Exits("y")
	if len(exits) != 1 || exits[0].ID != "b" {
		t.Fatalf("Exits(y) = %v", exits)
	}
	// mid is both produced and consumed internally: not an exit of b?
	// a produces mid, and edge a->b carries it, so a is not an exit for mid.
	if got := sub.Exits("mid"); len(got) != 0 {
		t.Fatalf("Exits(mid) = %v, want none", got)
	}
}

func TestValidateRejectsBadEdge(t *testing.T) {
	_, err := NewBuilder("bad", "Bad", "R").
		Workflow("R", "Root").
		Source("I", "x").
		Sink("O", "y").
		Edge("I", "O", "y"). // I does not produce y
		Build()
	if err == nil || !strings.Contains(err.Error(), "not produced") {
		t.Fatalf("err = %v, want 'not produced'", err)
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	_, err := NewBuilder("cyc", "Cyc", "R").
		Workflow("R", "Root").
		Atomic("a", "A", []string{"y"}, []string{"x"}).
		Atomic("b", "B", []string{"x"}, []string{"y"}).
		Edge("a", "b", "x").
		Edge("b", "a", "y").
		Build()
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v, want cycle error", err)
	}
}

func TestValidateRejectsMissingSub(t *testing.T) {
	_, err := NewBuilder("ms", "MS", "R").
		Workflow("R", "Root").
		Composite("C", "C", "NOPE", []string{"x"}, []string{"y"}).
		Build()
	if err == nil || !strings.Contains(err.Error(), "missing subworkflow") {
		t.Fatalf("err = %v, want missing-subworkflow error", err)
	}
}

func TestValidateRejectsDuplicateModuleIDs(t *testing.T) {
	_, err := NewBuilder("dup", "Dup", "R").
		Workflow("R", "Root").
		Composite("C", "C", "S", []string{"x"}, []string{"y"}).
		Workflow("S", "Sub").
		Atomic("C", "Clash", []string{"x"}, []string{"y"}).
		Build()
	if err == nil {
		t.Fatal("expected duplicate-id error")
	}
}

func TestValidateRejectsSharedSubworkflow(t *testing.T) {
	_, err := NewBuilder("shared", "Shared", "R").
		Workflow("R", "Root").
		Source("I", "x").
		Composite("C1", "C1", "S", []string{"x"}, []string{"y"}).
		Composite("C2", "C2", "S", []string{"y"}, []string{"z"}).
		Sink("O", "z").
		Edge("I", "C1", "x").
		Edge("C1", "C2", "y").
		Edge("C2", "O", "z").
		Workflow("S", "Sub").
		Atomic("a", "A", []string{"x", "y"}, []string{"y", "z"}).
		Build()
	if err == nil || !strings.Contains(err.Error(), "expanded by modules in both") {
		t.Fatalf("err = %v, want shared-subworkflow error", err)
	}
}

func TestValidateRejectsUnreachableWorkflow(t *testing.T) {
	b := NewBuilder("orphan", "Orphan", "R").
		Workflow("R", "Root").
		Source("I", "x").
		Sink("O", "x").
		Edge("I", "O", "x").
		Workflow("Z", "Orphan").
		Atomic("z", "Z", []string{"q"}, []string{"r"})
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("err = %v, want unreachable error", err)
	}
}

func TestValidateRejectsMissingEntry(t *testing.T) {
	_, err := NewBuilder("ne", "NE", "R").
		Workflow("R", "Root").
		Source("I", "x").
		Composite("C", "C", "S", []string{"x"}, []string{"y"}).
		Sink("O", "y").
		Edge("I", "C", "x").
		Edge("C", "O", "y").
		Workflow("S", "Sub").
		Atomic("a", "A", []string{"other"}, []string{"y"}).
		Build()
	if err == nil || !strings.Contains(err.Error(), "no entry") {
		t.Fatalf("err = %v, want no-entry error", err)
	}
}

func TestAllKeywords(t *testing.T) {
	m := &Module{Name: "Query OMIM Database", Keywords: []string{"genetics", "query"}}
	kws := m.AllKeywords()
	want := map[string]bool{"query": true, "omim": true, "database": true, "genetics": true}
	if len(kws) != len(want) {
		t.Fatalf("AllKeywords = %v", kws)
	}
	for _, k := range kws {
		if !want[k] {
			t.Fatalf("unexpected keyword %q in %v", k, kws)
		}
	}
}

func TestHierarchy(t *testing.T) {
	s := DiseaseSusceptibility()
	h, err := NewHierarchy(s)
	if err != nil {
		t.Fatalf("NewHierarchy: %v", err)
	}
	if h.Root != "W1" {
		t.Fatalf("root = %s", h.Root)
	}
	if got := h.Parent("W4"); got != "W2" {
		t.Fatalf("Parent(W4) = %s, want W2", got)
	}
	if got := h.Parent("W2"); got != "W1" {
		t.Fatalf("Parent(W2) = %s, want W1", got)
	}
	if got := h.Parent("W3"); got != "W1" {
		t.Fatalf("Parent(W3) = %s, want W1", got)
	}
	if got := h.Depth("W4"); got != 2 {
		t.Fatalf("Depth(W4) = %d, want 2", got)
	}
	if got := h.ViaModule("W3"); got != "M2" {
		t.Fatalf("ViaModule(W3) = %s, want M2", got)
	}
	kids := h.children["W1"]
	if len(kids) != 2 || kids[0] != "W2" || kids[1] != "W3" {
		t.Fatalf("children[W1] = %v", kids)
	}
	all := h.All()
	if len(all) != 4 || all[0] != "W1" {
		t.Fatalf("All = %v", all)
	}
	ascii := h.ASCII()
	if !strings.Contains(ascii, "W1\n  W2\n    W4\n  W3\n") {
		t.Fatalf("ASCII =\n%s", ascii)
	}
}

func TestPrefixValidate(t *testing.T) {
	s := DiseaseSusceptibility()
	h, _ := NewHierarchy(s)
	cases := []struct {
		p  Prefix
		ok bool
	}{
		{NewPrefix("W1"), true},
		{NewPrefix("W1", "W2"), true},
		{NewPrefix("W1", "W2", "W4"), true},
		{NewPrefix("W1", "W3"), true},
		{NewPrefix("W1", "W2", "W3", "W4"), true},
		{NewPrefix("W2"), false},          // missing root
		{NewPrefix("W1", "W4"), false},    // not closed: W2 absent
		{NewPrefix("W1", "BOGUS"), false}, // unknown workflow
	}
	for i, c := range cases {
		err := c.p.Validate(h)
		if (err == nil) != c.ok {
			t.Errorf("case %d: Validate(%v) err=%v, want ok=%v", i, c.p.IDs(), err, c.ok)
		}
	}
}

func TestPrefixesEnumeration(t *testing.T) {
	s := DiseaseSusceptibility()
	h, _ := NewHierarchy(s)
	ps := Prefixes(h)
	// Legal prefixes of the tree W1(W2(W4),W3):
	// {W1}, {W1,W2}, {W1,W3}, {W1,W2,W4}, {W1,W2,W3}, {W1,W2,W3,W4} = 6.
	if len(ps) != 6 {
		var got []string
		for _, p := range ps {
			got = append(got, strings.Join(p.IDs(), "+"))
		}
		t.Fatalf("Prefixes = %d (%v), want 6", len(ps), got)
	}
	for _, p := range ps {
		if err := p.Validate(h); err != nil {
			t.Fatalf("enumerated prefix %v invalid: %v", p.IDs(), err)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := DiseaseSusceptibility()
	data, err := MarshalSpec(s)
	if err != nil {
		t.Fatalf("MarshalSpec: %v", err)
	}
	s2, err := UnmarshalSpec(data)
	if err != nil {
		t.Fatalf("UnmarshalSpec: %v", err)
	}
	if s2.ID != s.ID || len(s2.Workflows) != len(s.Workflows) {
		t.Fatalf("round trip mismatch: %v", s2)
	}
	m, _ := s2.FindModule("M13")
	if m == nil || m.Name != "Reformat" {
		t.Fatalf("module M13 lost in round trip: %v", m)
	}
}

func TestUnmarshalRejectsInvalid(t *testing.T) {
	if _, err := UnmarshalSpec([]byte(`{"id":"x","root":"missing","workflows":{}}`)); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := UnmarshalSpec([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestComputeStats(t *testing.T) {
	s := DiseaseSusceptibility()
	st, err := ComputeStats(s)
	if err != nil {
		t.Fatalf("ComputeStats: %v", err)
	}
	if st.Workflows != 4 {
		t.Fatalf("workflows = %d", st.Workflows)
	}
	if st.Modules != 17 { // I,O + M1..M15
		t.Fatalf("modules = %d", st.Modules)
	}
	if st.Composite != 3 { // M1, M2, M4
		t.Fatalf("composite = %d", st.Composite)
	}
	if st.Depth != 2 { // W1 -> W2 -> W4
		t.Fatalf("depth = %d", st.Depth)
	}
	if st.FullModules != 14 {
		t.Fatalf("full modules = %d", st.FullModules)
	}
	// Longest dataflow path in the full expansion:
	// I->M3->M5->M6->M8->M9->M12->M13->M11->M15->O = 10 edges.
	if st.LongestPath != 10 {
		t.Fatalf("longest path = %d", st.LongestPath)
	}
	if !strings.Contains(st.String(), "workflows=4") {
		t.Fatalf("String = %s", st)
	}
}
