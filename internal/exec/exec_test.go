package exec

import (
	"strings"
	"testing"

	"provpriv/internal/workflow"
)

func runDisease(t *testing.T) (*workflow.Spec, *Execution) {
	t.Helper()
	spec := workflow.DiseaseSusceptibility()
	r := NewRunner(spec, nil)
	e, err := r.Run("E1", map[string]Value{
		"snps":           "rs123,rs456",
		"ethnicity":      "eth1",
		"lifestyle":      "active",
		"family_history": "fh1",
		"symptoms":       "none",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return spec, e
}

func TestRunProducesValidExecution(t *testing.T) {
	_, e := runDisease(t)
	if err := e.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !e.Graph().IsAcyclic() {
		t.Fatal("execution cyclic")
	}
}

func TestRunProcessIDsMatchFig4(t *testing.T) {
	_, e := runDisease(t)
	// Fig. 4 numbering: S1:M1-begin, S2:M3, S3:M4-begin, S4:M5, S5:M6,
	// S6:M7, S7:M8, S8:M2-begin, S9:M9, S10:M12, S11:M13, S12:M14,
	// S13:M10, S14:M11, S15:M15.
	want := map[string]bool{
		"I": true, "O": true,
		"S1:M1-begin": true, "S1:M1-end": true,
		"S2:M3":       true,
		"S3:M4-begin": true, "S3:M4-end": true,
		"S4:M5": true, "S5:M6": true, "S6:M7": true, "S7:M8": true,
		"S8:M2-begin": true, "S8:M2-end": true,
		"S9:M9": true, "S10:M12": true, "S11:M13": true, "S12:M14": true,
		"S13:M10": true, "S14:M11": true, "S15:M15": true,
	}
	if len(e.Nodes) != len(want) {
		t.Fatalf("node count = %d, want %d: %v", len(e.Nodes), len(want), e.NodeIDs())
	}
	for _, n := range e.Nodes {
		if !want[n.ID] {
			t.Errorf("unexpected node %s", n.ID)
		}
	}
}

func TestRunDataItemsMatchFig4(t *testing.T) {
	_, e := runDisease(t)
	// d0..d4 are the five workflow inputs, produced by I.
	for _, id := range []string{"d0", "d1", "d2", "d3", "d4"} {
		it := e.Items[id]
		if it == nil || it.Producer != "I" {
			t.Fatalf("item %s = %+v, want produced by I", id, it)
		}
	}
	// 5 inputs + snp_set + 2 queries + 2 disorder sets + disorders +
	// 2 W3 queries + articles + reformatted + summary + notes +
	// updated_notes + prognosis = 19 items (d0..d18).
	if len(e.Items) != 19 {
		t.Fatalf("items = %d (%v), want 19", len(e.Items), e.ItemIDs())
	}
	// The paper's d10 (disorders) flows M8 -> M4-end -> M1-end -> M2-begin.
	dis := findItemByAttr(e, "disorders")
	if dis == nil {
		t.Fatal("no disorders item")
	}
	if e.Items[dis.ID].Producer != "S7:M8" {
		t.Fatalf("disorders produced by %s, want S7:M8", e.Items[dis.ID].Producer)
	}
	for _, hop := range [][2]string{
		{"S7:M8", "S3:M4-end"},
		{"S3:M4-end", "S1:M1-end"},
		{"S1:M1-end", "S8:M2-begin"},
	} {
		if !edgeCarries(e, hop[0], hop[1], dis.ID) {
			t.Fatalf("edge %s->%s does not carry %s", hop[0], hop[1], dis.ID)
		}
	}
}

func findItemByAttr(e *Execution, attr string) *DataItem {
	for _, id := range e.ItemIDs() {
		if e.Items[id].Attr == attr {
			return e.Items[id]
		}
	}
	return nil
}

func edgeCarries(e *Execution, from, to, item string) bool {
	for _, ed := range e.Edges {
		if ed.From == from && ed.To == to {
			for _, it := range ed.Items {
				if it == item {
					return true
				}
			}
		}
	}
	return false
}

func TestRunBeginRelaysInputs(t *testing.T) {
	_, e := runDisease(t)
	// I passes d0,d1 to S1:M1-begin, which relays them to S2:M3 (Fig. 4).
	if !edgeCarries(e, "I", "S1:M1-begin", "d0") || !edgeCarries(e, "I", "S1:M1-begin", "d1") {
		t.Fatal("I -> M1-begin missing d0/d1")
	}
	if !edgeCarries(e, "S1:M1-begin", "S2:M3", "d0") {
		t.Fatal("M1-begin -> M3 missing d0")
	}
}

func TestRunDeterministic(t *testing.T) {
	_, e1 := runDisease(t)
	_, e2 := runDisease(t)
	if e1.ASCII() != e2.ASCII() {
		t.Fatal("two identical runs differ")
	}
}

func TestRunMissingInput(t *testing.T) {
	spec := workflow.DiseaseSusceptibility()
	r := NewRunner(spec, nil)
	_, err := r.Run("E", map[string]Value{"snps": "x"})
	if err == nil || !strings.Contains(err.Error(), "missing workflow input") {
		t.Fatalf("err = %v, want missing-input error", err)
	}
}

func TestRunCustomFuncs(t *testing.T) {
	spec := workflow.DiseaseSusceptibility()
	called := false
	r := NewRunner(spec, Registry{
		"M3": func(in map[string]Value) map[string]Value {
			called = true
			return map[string]Value{"snp_set": "EXPANDED:" + in["snps"]}
		},
	})
	e, err := r.Run("E", map[string]Value{
		"snps": "s", "ethnicity": "e", "lifestyle": "l",
		"family_history": "f", "symptoms": "y",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !called {
		t.Fatal("custom func not called")
	}
	it := findItemByAttr(e, "snp_set")
	if it == nil || it.Value != "EXPANDED:s" {
		t.Fatalf("snp_set = %+v", it)
	}
}

func TestRunFuncMissingOutput(t *testing.T) {
	spec := workflow.DiseaseSusceptibility()
	r := NewRunner(spec, Registry{
		"M3": func(in map[string]Value) map[string]Value { return nil },
	})
	_, err := r.Run("E", map[string]Value{
		"snps": "s", "ethnicity": "e", "lifestyle": "l",
		"family_history": "f", "symptoms": "y",
	})
	if err == nil || !strings.Contains(err.Error(), "did not produce output") {
		t.Fatalf("err = %v", err)
	}
}

func TestProvenance(t *testing.T) {
	_, e := runDisease(t)
	dis := findItemByAttr(e, "disorders")
	prov, err := ProvenanceIn(e, e.Graph(), dis.ID)
	if err != nil {
		t.Fatalf("Provenance: %v", err)
	}
	if err := prov.Validate(); err != nil {
		t.Fatalf("provenance invalid: %v", err)
	}
	// Provenance of disorders includes I, M3, M5..M8 chain but not W3
	// modules or O.
	for _, want := range []string{"I", "S2:M3", "S4:M5", "S7:M8"} {
		if prov.Node(want) == nil {
			t.Errorf("provenance missing node %s", want)
		}
	}
	for _, bad := range []string{"O", "S9:M9", "S15:M15"} {
		if prov.Node(bad) != nil {
			t.Errorf("provenance wrongly contains %s", bad)
		}
	}
	// DESIGN.md §5: provenance is connected and contains the producer.
	g := prov.Graph()
	src := g.Lookup("I")
	prod := g.Lookup("S7:M8")
	if src == -1 || prod == -1 || !g.Reachable(src, prod) {
		t.Fatal("provenance not connected from source to producer")
	}
}

func TestProvenanceOfInput(t *testing.T) {
	_, e := runDisease(t)
	prov, err := ProvenanceIn(e, e.Graph(), "d0")
	if err != nil {
		t.Fatalf("Provenance(d0): %v", err)
	}
	if len(prov.Nodes) != 1 || prov.Nodes[0].ID != "I" {
		t.Fatalf("provenance of input = %v, want just I", prov.NodeIDs())
	}
	if prov.Items["d0"] == nil {
		t.Fatal("queried item dropped from provenance")
	}
}

func TestProvenanceUnknownItem(t *testing.T) {
	_, e := runDisease(t)
	if _, err := ProvenanceIn(e, e.Graph(), "d999"); err == nil {
		t.Fatal("unknown item accepted")
	}
}

func TestDownstream(t *testing.T) {
	_, e := runDisease(t)
	snp := findItemByAttr(e, "snp_set")
	down, err := Downstream(e, snp.ID)
	if err != nil {
		t.Fatalf("Downstream: %v", err)
	}
	has := func(attr string) bool {
		for _, id := range down {
			if e.Items[id].Attr == attr {
				return true
			}
		}
		return false
	}
	for _, want := range []string{"snp_set", "disorders", "prognosis"} {
		if !has(want) {
			t.Errorf("Downstream missing %s (got %v)", want, down)
		}
	}
	if has("snps") || has("lifestyle") {
		t.Errorf("Downstream includes upstream/sibling items: %v", down)
	}
}

// Property: every data item's provenance contains its producer, and
// provenance is monotone along dataflow: if item b is downstream of
// item a, prov(a)'s nodes are a subset of prov(b)'s.
func TestProvenanceMonotone(t *testing.T) {
	_, e := runDisease(t)
	snp := findItemByAttr(e, "snp_set")
	dis := findItemByAttr(e, "disorders")
	pa, _ := ProvenanceIn(e, e.Graph(), snp.ID)
	pb, _ := ProvenanceIn(e, e.Graph(), dis.ID)
	inB := make(map[string]bool)
	for _, n := range pb.Nodes {
		inB[n.ID] = true
	}
	for _, n := range pa.Nodes {
		if !inB[n.ID] {
			t.Fatalf("prov(snp_set) node %s not in prov(disorders)", n.ID)
		}
	}
}

func TestASCIIAndDOT(t *testing.T) {
	_, e := runDisease(t)
	ascii := e.ASCII()
	if !strings.Contains(ascii, "S7:M8 -> S3:M4-end") {
		t.Fatalf("ASCII missing composite-end edge:\n%s", ascii)
	}
	dot := e.DOT()
	if !strings.Contains(dot, `"I" -> "S1:M1-begin"`) {
		t.Fatalf("DOT missing begin edge:\n%s", dot)
	}
}

func TestNodeFrames(t *testing.T) {
	_, e := runDisease(t)
	// M8 runs inside W4 inside W2: two frames, outermost first.
	n := e.Node("S7:M8")
	if n == nil {
		t.Fatal("S7:M8 missing")
	}
	if len(n.Frames) != 2 {
		t.Fatalf("frames = %+v, want 2", n.Frames)
	}
	if n.Frames[0].Module != "M1" || n.Frames[0].Sub != "W2" {
		t.Fatalf("outer frame = %+v", n.Frames[0])
	}
	if n.Frames[1].Module != "M4" || n.Frames[1].Sub != "W4" {
		t.Fatalf("inner frame = %+v", n.Frames[1])
	}
	// Begin/end nodes carry their own frame.
	b := e.Node("S3:M4-begin")
	if len(b.Frames) != 2 || b.Frames[1].Proc != "S3" {
		t.Fatalf("begin frames = %+v", b.Frames)
	}
	// Root-level nodes have no frames.
	if i := e.Node("I"); len(i.Frames) != 0 {
		t.Fatalf("I frames = %+v", i.Frames)
	}
}

// TestInternComparesWhatTheFingerprintFinds: the fingerprint only proposes
// candidates. An execution filed under another shape's fingerprint — a
// collision, forced here by hand — is compared field by field and gets a
// shape of its own.
func TestInternComparesWhatTheFingerprintFinds(t *testing.T) {
	_, a := runDisease(t)
	_, b := runDisease(t)
	b.Nodes[len(b.Nodes)-1].Proc = "elsewhere"
	shapes := NewShapes()
	sa := shapes.Intern(a).Shape()
	fp := shapes.fingerprint(b)
	if fp == shapes.fingerprint(a) {
		t.Fatal("fixture: the edit did not move the fingerprint")
	}
	shapes.byHash[fp] = append(shapes.byHash[fp], sa)
	if sb := shapes.Intern(b).Shape(); sb == sa || shapes.Len() != 2 {
		t.Fatalf("an execution colliding with A's fingerprint was interned as A's shape (%d shapes)", shapes.Len())
	}
	if _, c := runDisease(t); shapes.Intern(c).Shape() != sa {
		t.Fatal("a third execution of A's shape was not interned under it")
	}
}
