package audit

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"provpriv/internal/privacy"
	"provpriv/internal/workflow"
)

func examplePolicy(t *testing.T) (*workflow.Spec, *privacy.Policy) {
	t.Helper()
	spec := workflow.DiseaseSusceptibility()
	pol := privacy.NewPolicy(spec.ID)
	pol.DataLevels["snps"] = privacy.Owner
	pol.DataLevels["disorders"] = privacy.Analyst
	pol.ModuleLevels["M6"] = privacy.Owner
	pol.Structural = []privacy.HiddenPair{{From: "M13", To: "M11", Level: privacy.Owner}}
	pol.ViewGrants[privacy.Registered] = []string{"W2"}
	pol.ViewGrants[privacy.Analyst] = []string{"W3", "W4"}
	return spec, pol
}

func TestRunProducesFullReport(t *testing.T) {
	spec, pol := examplePolicy(t)
	rep, err := Run(spec, pol)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.SpecID != spec.ID {
		t.Fatalf("spec id = %s", rep.SpecID)
	}
	// Levels include public..owner.
	if len(rep.Levels) < 4 {
		t.Fatalf("levels = %d", len(rep.Levels))
	}
	// Public sees only W1 (4 modules).
	if rep.Levels[0].Level != privacy.Public || rep.Levels[0].ModulesVisible != 4 {
		t.Fatalf("public report = %+v", rep.Levels[0])
	}
	// Owner (last) sees all 14 modules, nothing hidden.
	last := rep.Levels[len(rep.Levels)-1]
	if last.ModulesVisible != 14 || len(last.HiddenAttrs) != 0 {
		t.Fatalf("owner report = %+v", last)
	}
	// The hidden pair M13->M11 withdraws W3, its deepest shared workflow,
	// below Owner: the Analyst view is what the engine serves, without it.
	for _, lr := range rep.Levels {
		if got, want := slices.Contains(lr.View, "W3"), lr.Level >= privacy.Owner; lr.Level >= privacy.Analyst && got != want {
			t.Fatalf("%s view = %v: W3 present %v, want %v", lr.Level, lr.View, got, want)
		}
	}
	// Leak warnings exist (snps feeds M3 whose snp_set is public).
	foundSnps := false
	for _, w := range rep.Leaks {
		if w.Attr == "snps" && w.Module == "M3" {
			foundSnps = true
		}
	}
	if !foundSnps {
		t.Fatalf("leaks = %+v, want snps->M3 warning", rep.Leaks)
	}
}

func TestRunRejectsInvalidPolicy(t *testing.T) {
	spec, _ := examplePolicy(t)
	bad := privacy.NewPolicy("other-spec")
	if _, err := Run(spec, bad); err == nil {
		t.Fatal("mismatched policy accepted")
	}
}

func TestNoLeaksWhenNothingHidden(t *testing.T) {
	spec := workflow.DiseaseSusceptibility()
	pol := privacy.NewPolicy(spec.ID)
	rep, err := Run(spec, pol)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Leaks) != 0 {
		t.Fatalf("leaks = %+v, want none", rep.Leaks)
	}
}

func TestLevelsHelper(t *testing.T) {
	_, pol := examplePolicy(t)
	ls := Levels(pol)
	if ls[0] != privacy.Public {
		t.Fatalf("levels = %v", ls)
	}
	for i := 1; i < len(ls); i++ {
		if ls[i] <= ls[i-1] {
			t.Fatalf("levels unsorted: %v", ls)
		}
	}
	// Includes owner (from data levels) and analyst (first denied +
	// grants).
	want := map[privacy.Level]bool{privacy.Owner: true, privacy.Analyst: true}
	for _, l := range ls {
		delete(want, l)
	}
	if len(want) != 0 {
		t.Fatalf("levels %v missing %v", ls, want)
	}
}

func TestRender(t *testing.T) {
	spec, pol := examplePolicy(t)
	rep, _ := Run(spec, pol)
	if len(rep.Leaks) == 0 {
		t.Fatal("the example policy has no leak warning to advise on")
	}
	out := rep.Render()
	for _, wantSub := range []string{
		"access levels", "downstream-leak warnings",
		"view={W1 W2 W4}",
		// The advice names only policy fields the engine enforces.
		fmt.Sprintf("\n%d warning(s); protect each at the attribute's level: the output in data_levels, or the module in module_levels\n", len(rep.Leaks)),
	} {
		if !strings.Contains(out, wantSub) {
			t.Fatalf("Render missing %q:\n%s", wantSub, out)
		}
	}
}

// Mask-free policy on a module-private workflow: the leak scan skips
// modules the level cannot see (their outputs are not an oracle for
// that level).
func TestLeakScanSkipsHiddenModules(t *testing.T) {
	spec := workflow.DiseaseSusceptibility()
	pol := privacy.NewPolicy(spec.ID)
	pol.DataLevels["snps"] = privacy.Owner
	pol.ModuleLevels["M3"] = privacy.Owner // the would-be oracle is itself hidden
	rep, err := Run(spec, pol)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, w := range rep.Leaks {
		if w.Module == "M3" {
			t.Fatalf("hidden module reported as oracle: %+v", w)
		}
	}
}
