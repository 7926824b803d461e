package taint

// The cold fill's analysis is scoped to its asker: sources are the full
// execution's items above the asker's level, targets the items of the view
// being masked. This file holds both scoped paths — MaskInPlace, and
// ApplyInPlace with AnalyzeIn scoped to the level — to the unscoped
// reference, Apply(view, level, Analyze(full)), on random specs, policies,
// ladders, levels and access views.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// Flags of a scoped case.
const (
	withLadder      = 1 << iota // a generalization ladder on every protected attribute
	emptySources                // every other protected item's value emptied
	redactedSources             // every third protected item marked Redacted, value kept
	hiddenSource                // the first valued item the view hides protected at owner
)

// scopedSeeds cover every level, each flag, and views from the root alone
// to the full expansion.
var scopedSeeds = []struct {
	seed  int64
	level uint8
	view  uint64
	flags uint8
}{
	{1, 0, 0, hiddenSource},
	{2, 1, 0, hiddenSource | withLadder},
	{3, 2, 0b1, hiddenSource | emptySources},
	{4, 3, 0, hiddenSource},
	{5, 0, ^uint64(0), 0},
	{6, 1, ^uint64(0), withLadder},
	{7, 2, 0b1011, emptySources},
	{8, 0, 0b0110, redactedSources},
	{9, 1, 0b1, redactedSources | emptySources | withLadder},
	{10, 3, ^uint64(0), redactedSources},
	{11, 0, 0b10, hiddenSource | redactedSources},
	{12, 1, 0b11, hiddenSource | withLadder | emptySources},
}

// coarsen is a test ladder: a value's first characters and the depth.
type coarsen struct{}

func (coarsen) Generalize(v exec.Value, depth int) exec.Value {
	if depth <= 0 {
		return v
	}
	return exec.Value(fmt.Sprintf("%s~%d", v[:len(v)/(depth+1)], depth))
}

func (coarsen) MaxDepth() int { return 3 }

// checkScoped runs one case and reports whether a source the view hides
// reached a visible item: the view, unmasked, embeds its raw value in an
// item the level may see.
func checkScoped(t *testing.T, seed int64, lvl uint8, viewBits uint64, flags uint8) (hiddenBit bool) {
	t.Helper()
	s, err := workload.RandomSpec(workload.SpecConfig{Seed: seed, Depth: 3, Fanout: 2, Chain: 4, SkipProb: 0.3})
	if err != nil {
		t.Fatalf("seed %d: RandomSpec: %v", seed, err)
	}
	pol, err := workload.RandomPolicy(s, seed)
	if err != nil {
		t.Fatalf("seed %d: RandomPolicy: %v", seed, err)
	}
	full, err := exec.NewRunner(s, nil).Run("E", workload.RandomInputs(s, seed))
	if err != nil {
		t.Fatalf("seed %d: Run: %v", seed, err)
	}
	h, err := workflow.NewHierarchy(s)
	if err != nil {
		t.Fatalf("seed %d: NewHierarchy: %v", seed, err)
	}
	prefix := workflow.RootPrefix(h)
	for i, w := range h.All()[1:] { // breadth first: a parent comes before its children
		if viewBits>>(i%64)&1 == 1 && prefix.Contains(h.Parent(w)) {
			prefix[w] = true
		}
	}
	level := diffLevels[int(lvl)%len(diffLevels)]
	collapse := func() *exec.Execution {
		v, _, err := exec.CollapseIn(full, h, prefix)
		if err != nil {
			t.Fatalf("seed %d: CollapseIn: %v", seed, err)
		}
		return v
	}

	k := 0
	for _, id := range full.ItemIDs() {
		it := full.Items[id]
		if pol.DataLevels[it.Attr] == privacy.Public {
			continue
		}
		switch {
		case flags&emptySources != 0 && k%2 == 0:
			it.Value = ""
		case flags&redactedSources != 0 && k%3 == 1:
			it.Redacted = true
		}
		k++
	}
	var hiddenRaw string
	if flags&hiddenSource != 0 {
		view := collapse()
		for _, id := range full.ItemIDs() {
			if it := full.Items[id]; view.Items[id] == nil && it.Value != "" && !it.Redacted {
				pol.DataLevels[it.Attr] = privacy.Owner
				hiddenRaw = string(it.Value)
				break
			}
		}
		for _, it := range view.Items {
			if hiddenRaw != "" && level < privacy.Owner && pol.DataLevels[it.Attr] <= level && strings.Contains(string(it.Value), hiddenRaw) {
				hiddenBit = true
			}
		}
	}
	var gens map[string]Generalizer
	if flags&withLadder != 0 {
		gens = make(map[string]Generalizer)
		for attr := range pol.DataLevels {
			gens[attr] = coarsen{}
		}
	}
	en := NewEngine(pol, gens)

	tag := fmt.Sprintf("seed=%d level=%s view=%v flags=%04b", seed, level, prefix.IDs(), flags)
	want, wantRep := en.Apply(collapse(), level, en.Analyze(full))
	anc := exec.NewAncestry(full)
	fused := collapse()
	fusedRep := en.MaskInPlace(fused, full, anc, level)
	scoped := collapse()
	scopedRep := en.ApplyInPlace(scoped, level, en.AnalyzeIn(full, anc, level))
	for name, got := range map[string]struct {
		view *exec.Execution
		rep  Report
	}{"MaskInPlace": {fused, fusedRep}, "AnalyzeIn+ApplyInPlace": {scoped, scopedRep}} {
		if got.rep != wantRep {
			t.Errorf("%s: %s report %+v, reference %+v", tag, name, got.rep, wantRep)
		}
		if got.view.ID != want.ID || len(got.view.Items) != len(want.Items) {
			t.Errorf("%s: %s masked %s with %d items, reference %s with %d", tag, name, got.view.ID, len(got.view.Items), want.ID, len(want.Items))
		}
		for id, w := range want.Items {
			if g := got.view.Items[id]; g == nil || g.Value != w.Value || g.Redacted != w.Redacted {
				t.Errorf("%s: %s item %s = %+v, reference %+v", tag, name, id, g, w)
			}
		}
	}
	if hiddenBit {
		for id, it := range want.Items {
			if strings.Contains(string(it.Value), hiddenRaw) {
				t.Errorf("%s: item %s serves the hidden source's value %q", tag, id, hiddenRaw)
			}
		}
	}
	return hiddenBit
}

// TestScopedMaskMatchesReference runs the fuzz target's seeds and checks
// they exercise what the scoping must get right: a protected source inside
// a collapsed composite that taints an item the view shows.
func TestScopedMaskMatchesReference(t *testing.T) {
	bites := 0
	for _, c := range scopedSeeds {
		if checkScoped(t, c.seed, c.level, c.view, c.flags) {
			bites++
		}
	}
	if bites == 0 {
		t.Fatal("no seed hides a source that taints a visible item")
	}
}

// FuzzScopedMaskMatchesReference: for any spec, policy, ladder, level and
// access view, the scoped masks equal the unscoped reference exactly.
func FuzzScopedMaskMatchesReference(f *testing.F) {
	for _, c := range scopedSeeds {
		f.Add(c.seed, c.level, c.view, c.flags)
	}
	f.Fuzz(func(t *testing.T, seed int64, level uint8, view uint64, flags uint8) {
		checkScoped(t, seed, level, view, flags)
	})
}

// TestScopedSetRefusesALowerLevel: a Set analysed for a level holds no
// source at or below it, so masking below it would leak what it left out;
// Apply and ApplyInPlace panic instead. At its level and above it masks.
func TestScopedSetRefusesALowerLevel(t *testing.T) {
	e, pol, _ := manyPatternRun(1, 24)
	en := NewEngine(pol, nil)
	anc := exec.NewAncestry(e)
	for _, scope := range diffLevels {
		set := en.AnalyzeIn(e, anc, scope)
		for _, lvl := range diffLevels {
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				en.Apply(e, lvl, set)
				return false
			}()
			if want := lvl < scope; panicked != want {
				t.Errorf("a Set analysed for %s masking at %s: panicked %v, want %v", scope, lvl, panicked, want)
			}
		}
	}
	if en.Analyze(e).Labels() == 0 {
		t.Fatal("fixture: nothing is protected")
	}
}

// TestMaskInPlaceAnalysesNothingForWhoSeesAll: at a level at or above every
// protected attribute — the owner's, or the analyst's once nothing is
// protected above it — the fill arms no sanitizer and builds no Set: it
// allocates the masked execution's new name and nothing else.
func TestMaskInPlaceAnalysesNothingForWhoSeesAll(t *testing.T) {
	e, pol, _ := manyPatternRun(1, 24)
	capped := privacy.NewPolicy(pol.SpecID)
	for attr, req := range pol.DataLevels {
		capped.DataLevels[attr] = req
		if req > privacy.Analyst {
			capped.DataLevels[attr] = privacy.Analyst
		}
	}
	anc := exec.NewAncestry(e)
	for _, c := range []struct {
		pol   *privacy.Policy
		level privacy.Level
	}{{pol, privacy.Owner}, {capped, privacy.Analyst}} {
		en := NewEngine(c.pol, nil)
		view, _ := en.Apply(e, c.level, nil)
		if got := testing.AllocsPerRun(100, func() { en.MaskInPlace(view, e, anc, c.level) }); got > 1 {
			t.Fatalf("a mask at %s allocates %.0f times; the rename is the one allocation", c.level, got)
		}
		if rep, want := en.MaskInPlace(view, e, anc, c.level), (Report{Visible: len(e.Items)}); !reflect.DeepEqual(rep, want) {
			t.Fatalf("report at %s %+v, want %+v", c.level, rep, want)
		}
	}
}
