package provpriv

// Golden tests pinning the regenerated paper figures: any change to the
// model, scheduler or search semantics that drifts from the paper's
// artifacts fails here first.

import (
	"strings"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/search"
	"provpriv/internal/workflow"
)

func fig4Execution(t *testing.T) *exec.Execution {
	t.Helper()
	spec := workflow.DiseaseSusceptibility()
	e, err := exec.NewRunner(spec, nil).Run("E1", map[string]exec.Value{
		"snps": "rs123", "ethnicity": "eth1", "lifestyle": "active",
		"family_history": "fh1", "symptoms": "none",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return e
}

const goldenFig4 = `execution E1 of disease-susceptibility
  I -> S1:M1-begin  [d0,d1]
  I -> S8:M2-begin  [d2,d3,d4]
  S10:M12 -> S11:M13  [d13]
  S11:M13 -> S12:M14  [d14]
  S11:M13 -> S14:M11  [d14]
  S12:M14 -> S15:M15  [d15]
  S13:M10 -> S14:M11  [d16]
  S14:M11 -> S15:M15  [d17]
  S15:M15 -> S8:M2-end  [d18]
  S1:M1-begin -> S2:M3  [d0,d1]
  S1:M1-end -> S8:M2-begin  [d10]
  S2:M3 -> S3:M4-begin  [d5]
  S3:M4-begin -> S4:M5  [d5]
  S3:M4-end -> S1:M1-end  [d10]
  S4:M5 -> S5:M6  [d6]
  S4:M5 -> S6:M7  [d7]
  S5:M6 -> S7:M8  [d8]
  S6:M7 -> S7:M8  [d9]
  S7:M8 -> S3:M4-end  [d10]
  S8:M2-begin -> S9:M9  [d2,d3,d4,d10]
  S8:M2-end -> O  [d18]
  S9:M9 -> S10:M12  [d11]
  S9:M9 -> S13:M10  [d12]
`

func TestGoldenFig4(t *testing.T) {
	e := fig4Execution(t)
	if got := e.ASCII(); got != goldenFig4 {
		t.Fatalf("Fig. 4 drifted:\n--- got ---\n%s--- want ---\n%s", got, goldenFig4)
	}
}

const goldenFig2 = `execution E1/view of disease-susceptibility
  I -> S1:M1  [d0,d1]
  I -> S8:M2  [d2,d3,d4]
  S1:M1 -> S8:M2  [d10]
  S8:M2 -> O  [d18]
`

func TestGoldenFig2(t *testing.T) {
	e := fig4Execution(t)
	spec := workflow.DiseaseSusceptibility()
	v, err := exec.Collapse(e, spec, workflow.NewPrefix("W1"))
	if err != nil {
		t.Fatalf("Collapse: %v", err)
	}
	if got := v.ASCII(); got != goldenFig2 {
		t.Fatalf("Fig. 2 drifted:\n--- got ---\n%s--- want ---\n%s", got, goldenFig2)
	}
}

const goldenFig3 = `W1
  W2
    W4
  W3
`

func TestGoldenFig3(t *testing.T) {
	spec := workflow.DiseaseSusceptibility()
	h, err := workflow.NewHierarchy(spec)
	if err != nil {
		t.Fatalf("NewHierarchy: %v", err)
	}
	if got := h.ASCII(); got != goldenFig3 {
		t.Fatalf("Fig. 3 drifted:\n%s", got)
	}
}

func TestGoldenFig5(t *testing.T) {
	spec := workflow.DiseaseSusceptibility()
	res, err := search.Search(spec, search.ParseQuery("Database, Disorder Risks"))
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	view, err := res.View()
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	ascii := view.ASCII()
	wantLines := []string{
		"modules: I, M2, M3, M5, M6, M7, M8, O",
		"I -> M2  [family_history,lifestyle,symptoms]",
		"I -> M3  [ethnicity,snps]",
		"M2 -> O  [prognosis]",
		"M3 -> M5  [snp_set]",
		"M5 -> M6  [query_omim]",
		"M5 -> M7  [query_pubmed]",
		"M6 -> M8  [disorders_omim]",
		"M7 -> M8  [disorders_pubmed]",
		"M8 -> M2  [disorders]",
	}
	for _, line := range wantLines {
		if !strings.Contains(ascii, line) {
			t.Fatalf("Fig. 5 missing %q:\n%s", line, ascii)
		}
	}
}

func TestGoldenFig1FullExpansionEdges(t *testing.T) {
	spec := workflow.DiseaseSusceptibility()
	h, _ := workflow.NewHierarchy(spec)
	v, err := workflow.Expand(spec, workflow.FullPrefix(h))
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	ascii := v.ASCII()
	// Section 2's two named edges plus the full module roster.
	for _, line := range []string{
		"M3 -> M5  [snp_set]",
		"M8 -> M9  [disorders]",
		"modules: I, M10, M11, M12, M13, M14, M15, M3, M5, M6, M7, M8, M9, O",
	} {
		if !strings.Contains(ascii, line) {
			t.Fatalf("Fig. 1 full expansion missing %q:\n%s", line, ascii)
		}
	}
}
