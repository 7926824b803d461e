package modpriv

import (
	"errors"
	"maps"
	"strings"
	"testing"

	"provpriv/internal/exec"
)

// xorFunc: out = in1 XOR in2 over {0,1}.
func xorFunc(in map[string]exec.Value) map[string]exec.Value {
	v := "0"
	if in["a"] != in["b"] {
		v = "1"
	}
	return map[string]exec.Value{"y": exec.Value(v)}
}

func xorRelation(t *testing.T) *Relation {
	t.Helper()
	dom := Domain{
		"a": {"0", "1"},
		"b": {"0", "1"},
		"y": {"0", "1"},
	}
	rel, err := Enumerate("xor", xorFunc, []string{"a", "b"}, []string{"y"}, dom)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	return rel
}

func TestEnumerateRows(t *testing.T) {
	rel := xorRelation(t)
	if len(rel.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rel.Rows))
	}
	// Spot check a row.
	found := false
	for _, r := range rel.Rows {
		if r.In["a"] == "1" && r.In["b"] == "0" {
			found = true
			if r.Out["y"] != "1" {
				t.Fatalf("xor(1,0) = %v", r.Out["y"])
			}
		}
	}
	if !found {
		t.Fatal("row (1,0) missing")
	}
}

func TestEnumerateRejectsEmptyDomain(t *testing.T) {
	_, err := Enumerate("m", xorFunc, []string{"a", "b"}, []string{"y"},
		Domain{"a": {"0"}, "b": nil, "y": {"0", "1"}})
	if err == nil || !strings.Contains(err.Error(), "empty domain") {
		t.Fatalf("err = %v", err)
	}
}

func TestEnumerateRejectsOutOfDomainOutput(t *testing.T) {
	bad := func(in map[string]exec.Value) map[string]exec.Value {
		return map[string]exec.Value{"y": "weird"}
	}
	_, err := Enumerate("m", bad, []string{"a"}, []string{"y"},
		Domain{"a": {"0"}, "y": {"0", "1"}})
	if err == nil || !strings.Contains(err.Error(), "outside its domain") {
		t.Fatalf("err = %v", err)
	}
}

func TestPrivacyLevelNothingHidden(t *testing.T) {
	rel := xorRelation(t)
	if got := rel.PrivacyLevel(NewHidden()); got != 1 {
		t.Fatalf("level(∅) = %d, want 1", got)
	}
}

func TestPrivacyLevelHideOutput(t *testing.T) {
	rel := xorRelation(t)
	// Hiding y alone: for any input, OUT_x = dom(y) = 2.
	if got := rel.PrivacyLevel(NewHidden("y")); got != 2 {
		t.Fatalf("level({y}) = %d, want 2", got)
	}
}

func TestPrivacyLevelHideOneInput(t *testing.T) {
	rel := xorRelation(t)
	// Hiding input a: group {b=0} contains rows a=0 (y=0) and a=1 (y=1):
	// two distinct visible outputs -> level 2. Same for b=1.
	if got := rel.PrivacyLevel(NewHidden("a")); got != 2 {
		t.Fatalf("level({a}) = %d, want 2", got)
	}
}

func TestPrivacyLevelHideAll(t *testing.T) {
	rel := xorRelation(t)
	// Hidden inputs merge all rows into one group; hidden output is free:
	// 1 distinct visible projection × |dom(y)| = 2.
	if got := rel.MaxLevel(); got != 2 {
		t.Fatalf("MaxLevel = %d, want 2", got)
	}
}

// Monotonicity: hiding more attributes never lowers the level.
func TestPrivacyLevelMonotone(t *testing.T) {
	rel := bigRelation(t)
	subsets := [][]string{
		{}, {"a"}, {"a", "b"}, {"a", "b", "y"}, {"a", "b", "y", "z"},
	}
	prev := 0
	for _, s := range subsets {
		level := rel.PrivacyLevel(NewHidden(s...))
		if level < prev {
			t.Fatalf("level(%v) = %d < previous %d: not monotone", s, level, prev)
		}
		prev = level
	}
}

// bigRelation: two ternary inputs, two outputs:
// y = (a+b) mod 3, z = a*b mod 3 over {0,1,2}.
func bigRelation(t *testing.T) *Relation {
	t.Helper()
	fn := func(in map[string]exec.Value) map[string]exec.Value {
		a := int(in["a"][0] - '0')
		b := int(in["b"][0] - '0')
		return map[string]exec.Value{
			"y": exec.Value(rune('0' + (a+b)%3)),
			"z": exec.Value(rune('0' + (a*b)%3)),
		}
	}
	dom := Domain{
		"a": {"0", "1", "2"},
		"b": {"0", "1", "2"},
		"y": {"0", "1", "2"},
		"z": {"0", "1", "2"},
	}
	rel, err := Enumerate("mod3", fn, []string{"a", "b"}, []string{"y", "z"}, dom)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	return rel
}

func TestExhaustiveFindsMinimumCost(t *testing.T) {
	rel := xorRelation(t)
	// Weights: y is cheap to hide.
	w := Weights{"a": 5, "b": 5, "y": 1}
	sv, err := ExhaustiveSecureView(rel, 2, w)
	if err != nil {
		t.Fatalf("ExhaustiveSecureView: %v", err)
	}
	if !sv.Hidden["y"] || len(sv.Hidden) != 1 {
		t.Fatalf("hidden = %v, want {y}", sv.Hidden)
	}
	if sv.Cost != 1 {
		t.Fatalf("cost = %v, want 1", sv.Cost)
	}
	if sv.Level < 2 {
		t.Fatalf("level = %d", sv.Level)
	}
}

func TestExhaustivePrefersCheapInput(t *testing.T) {
	rel := xorRelation(t)
	// Now the output is expensive; hiding one input also gives Γ=2.
	w := Weights{"a": 1, "b": 5, "y": 10}
	sv, err := ExhaustiveSecureView(rel, 2, w)
	if err != nil {
		t.Fatalf("ExhaustiveSecureView: %v", err)
	}
	if !sv.Hidden["a"] || len(sv.Hidden) != 1 {
		t.Fatalf("hidden = %v, want {a}", sv.Hidden)
	}
}

func TestUnachievableGamma(t *testing.T) {
	rel := xorRelation(t)
	_, err := ExhaustiveSecureView(rel, 3, nil)
	var ue *ErrUnachievable
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want ErrUnachievable", err)
	}
	if ue.Max != 2 {
		t.Fatalf("max = %d, want 2", ue.Max)
	}
	if _, err := GreedySecureView(rel, 3, nil); !errors.As(err, &ue) {
		t.Fatalf("greedy err = %v, want ErrUnachievable", err)
	}
}

func TestGreedyIsSafe(t *testing.T) {
	rel := bigRelation(t)
	for _, gamma := range []int{2, 3, 6, 9} {
		sv, err := GreedySecureView(rel, gamma, nil)
		if err != nil {
			t.Fatalf("Γ=%d: %v", gamma, err)
		}
		if !rel.IsSafe(sv.Hidden, gamma) {
			t.Fatalf("Γ=%d: greedy result %v unsafe (level %d)", gamma, sv.Hidden, sv.Level)
		}
	}
}

func TestGreedyVsExhaustiveGap(t *testing.T) {
	rel := bigRelation(t)
	w := Weights{"a": 3, "b": 2, "y": 2, "z": 1}
	for _, gamma := range []int{2, 3, 6} {
		ex, err := ExhaustiveSecureView(rel, gamma, w)
		if err != nil {
			t.Fatalf("exact Γ=%d: %v", gamma, err)
		}
		gr, err := GreedySecureView(rel, gamma, w)
		if err != nil {
			t.Fatalf("greedy Γ=%d: %v", gamma, err)
		}
		if gr.Cost < ex.Cost {
			t.Fatalf("Γ=%d: greedy cost %v beats exact %v — exact not optimal", gamma, gr.Cost, ex.Cost)
		}
		// Greedy should stay within 3x on these tiny instances.
		if gr.Cost > 3*ex.Cost {
			t.Fatalf("Γ=%d: greedy cost %v vs exact %v: gap too large", gamma, gr.Cost, ex.Cost)
		}
	}
}

func TestGreedyReverseDeletionPrunes(t *testing.T) {
	rel := bigRelation(t)
	sv, err := GreedySecureView(rel, 2, nil)
	if err != nil {
		t.Fatalf("greedy: %v", err)
	}
	// Γ=2 is reachable by hiding a single attribute (e.g. z: for input
	// groups the distinct visible outputs... verify minimality: no proper
	// subset of the result is safe.
	for a := range sv.Hidden {
		h := maps.Clone(sv.Hidden)
		delete(h, a)
		if rel.IsSafe(h, 2) {
			t.Fatalf("greedy result %v not minimal: %s removable", sv.Hidden, a)
		}
	}
}

func TestHiddenHelpers(t *testing.T) {
	h := NewHidden("b", "a")
	if h.String() != "{a,b}" {
		t.Fatalf("String = %s", h.String())
	}
	if got := (Weights{"a": 2}).Cost(h); got != 3 { // a=2 + b=default 1
		t.Fatalf("Cost = %v, want 3", got)
	}
}
