package datapriv

import (
	"strings"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/workflow"
)

func ageHierarchy() *Hierarchy {
	return &Hierarchy{
		Attr: "snps",
		Levels: []map[exec.Value]exec.Value{
			{"rs1": "chr1", "rs2": "chr1", "rs3": "chr2"},
			{"chr1": "genome", "chr2": "genome"},
		},
	}
}

func TestGeneralizeDepths(t *testing.T) {
	h := ageHierarchy()
	if got := h.Generalize("rs1", 0); got != "rs1" {
		t.Fatalf("depth 0 = %s", got)
	}
	if got := h.Generalize("rs1", 1); got != "chr1" {
		t.Fatalf("depth 1 = %s", got)
	}
	if got := h.Generalize("rs1", 2); got != "genome" {
		t.Fatalf("depth 2 = %s", got)
	}
	// Clamp beyond ladder.
	if got := h.Generalize("rs1", 9); got != "genome" {
		t.Fatalf("depth 9 = %s", got)
	}
	// Unknown value falls back to Other/"*".
	if got := h.Generalize("rsX", 1); got != "*" {
		t.Fatalf("unknown = %s", got)
	}
	h.Other = "?"
	if got := h.Generalize("rsX", 1); got != "?" {
		t.Fatalf("unknown with Other = %s", got)
	}
}

func maskedDisease(t *testing.T, level privacy.Level, withHier bool) (*exec.Execution, *exec.Execution, Report) {
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
	p := privacy.NewPolicy(spec.ID)
	p.DataLevels["snps"] = privacy.Owner
	p.DataLevels["disorders"] = privacy.Analyst
	var hs map[string]*Hierarchy
	if withHier {
		hs = map[string]*Hierarchy{"snps": ageHierarchy()}
	}
	m := NewMasker(p, hs)
	masked, rep := m.Mask(e, level)
	return e, masked, rep
}

// reportTotal is how many items a masking pass accounted for: every
// item lands in exactly one bucket.
func reportTotal(r Report) int {
	return r.Visible + r.Generalized + r.Redacted + r.Rewritten + r.TaintRedacted
}

func TestMaskRedactsWithoutHierarchy(t *testing.T) {
	orig, masked, rep := maskedDisease(t, privacy.Public, false)
	if rep.Redacted != 2 { // snps + disorders
		t.Fatalf("report = %+v, want 2 redacted", rep)
	}
	if total := reportTotal(rep); total != len(orig.Items) {
		t.Fatalf("report total %d != items %d", total, len(orig.Items))
	}
	for id, it := range masked.Items {
		switch it.Attr {
		case "snps", "disorders":
			if !it.Redacted || it.Value != "" {
				t.Fatalf("item %s not redacted: %+v", id, it)
			}
		default:
			if it.Redacted {
				t.Fatalf("item %s wrongly redacted", id)
			}
		}
	}
	// Original untouched.
	for _, it := range orig.Items {
		if it.Redacted {
			t.Fatal("Mask mutated original")
		}
	}
}

func TestMaskGeneralizesWithHierarchy(t *testing.T) {
	_, masked, rep := maskedDisease(t, privacy.Analyst, true)
	// Analyst (2) < Owner (3) by 1: snps generalized one step.
	if rep.Generalized != 1 || rep.Redacted != 0 {
		t.Fatalf("report = %+v", rep)
	}
	for _, it := range masked.Items {
		if it.Attr == "snps" {
			if it.Value != "chr1" || it.Redacted {
				t.Fatalf("snps = %+v, want chr1", it)
			}
		}
	}
}

func TestMaskDepthGrowsWithLevelGap(t *testing.T) {
	_, maskedPub, _ := maskedDisease(t, privacy.Public, true)
	for _, it := range maskedPub.Items {
		if it.Attr == "snps" && it.Value != "genome" {
			t.Fatalf("public snps = %v, want genome (depth 3 clamped to 2)", it.Value)
		}
	}
}

func TestMaskOwnerSeesAll(t *testing.T) {
	orig, masked, rep := maskedDisease(t, privacy.Owner, false)
	if rep.Redacted != 0 || rep.Generalized != 0 || rep.Visible != len(orig.Items) {
		t.Fatalf("report = %+v", rep)
	}
	for id, it := range masked.Items {
		if it.Value != orig.Items[id].Value {
			t.Fatalf("owner view altered item %s", id)
		}
	}
}

// Property: masking is monotone — if a level sees a value
// unmodified, every higher level does too, and redactions only shrink.
func TestMaskMonotone(t *testing.T) {
	levels := []privacy.Level{privacy.Public, privacy.Registered, privacy.Analyst, privacy.Owner}
	var prevVisible map[string]bool
	for _, l := range levels {
		orig, masked, _ := maskedDisease(t, l, true)
		visible := make(map[string]bool)
		for id, it := range masked.Items {
			if !it.Redacted && it.Value == orig.Items[id].Value {
				visible[id] = true
			}
		}
		if prevVisible != nil {
			for id := range prevVisible {
				if !visible[id] {
					t.Fatalf("item %s visible at lower level but hidden at %s", id, l)
				}
			}
		}
		prevVisible = visible
	}
}

// The satellite aliasing fix: Mask used to share the Edges backing
// array and shallow-copy Nodes, so sanitizing a masked view could
// corrupt the shard's canonical execution. Mask must return a deep
// copy.
func TestMaskDeepCopyNoAliasing(t *testing.T) {
	orig, masked, _ := maskedDisease(t, privacy.Public, false)
	wantEdge := orig.Edges[0]
	wantItems := append([]string(nil), wantEdge.Items...)
	for i := range masked.Edges {
		masked.Edges[i].From = "vandal"
		for j := range masked.Edges[i].Items {
			masked.Edges[i].Items[j] = "vandal"
		}
	}
	for _, n := range masked.Nodes {
		n.ID = "vandal"
		for i := range n.Frames {
			n.Frames[i].Proc = "vandal"
		}
	}
	for _, it := range masked.Items {
		it.Value = "vandal"
	}
	if orig.Edges[0].From != wantEdge.From {
		t.Fatal("Edges backing array shared with the original")
	}
	for i, id := range orig.Edges[0].Items {
		if id != wantItems[i] {
			t.Fatal("edge item slice shared with the original")
		}
	}
	for _, n := range orig.Nodes {
		if n.ID == "vandal" {
			t.Fatal("node pointers shared with the original")
		}
		for _, f := range n.Frames {
			if f.Proc == "vandal" {
				t.Fatal("frame slice shared with the original")
			}
		}
	}
	for id, it := range orig.Items {
		if it.Value == "vandal" {
			t.Fatalf("item %s shared with the original", id)
		}
	}
}

// Mask is taint-aware: the raw value of a protected input must not
// survive inside derived trace strings (the internal/taint regression
// seen end-to-end on public provenance of prognosis).
func TestMaskRewritesEmbeddedProtectedValues(t *testing.T) {
	orig, masked, rep := maskedDisease(t, privacy.Public, false)
	for id, it := range masked.Items {
		if it.Attr == "snps" {
			continue // the item itself is redacted; checked elsewhere
		}
		if strings.Contains(string(it.Value), "rs1") {
			t.Errorf("item %s embeds raw snps value: %q", id, it.Value)
		}
	}
	if rep.Rewritten == 0 {
		t.Fatalf("expected rewritten derived traces, report = %+v", rep)
	}
	if total := reportTotal(rep); total != len(orig.Items) {
		t.Fatalf("report total %d != %d items", total, len(orig.Items))
	}
}
