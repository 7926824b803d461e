package taint_test

// Property tests on randomly generated workflows and policies: the
// end-to-end guarantee is that no item value visible at level L embeds
// (as a substring) the raw value of any protected ancestor whose
// required level exceeds L, and that masking is monotone in level.

import (
	"sort"
	"strings"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/graph"
	"provpriv/internal/privacy"
	"provpriv/internal/taint"
	"provpriv/internal/workload"
)

var allLevels = []privacy.Level{privacy.Public, privacy.Registered, privacy.Analyst, privacy.Owner}

// randomTaintedRun builds a random spec, a random policy hardened with
// one guaranteed owner-only workflow input (so taint always has a
// source), and one execution.
func randomTaintedRun(t testing.TB, seed int64) (*exec.Execution, *privacy.Policy) {
	t.Helper()
	s, err := workload.RandomSpec(workload.SpecConfig{
		Seed: seed, Depth: 3, Fanout: 2, Chain: 4, SkipProb: 0.3,
	})
	if err != nil {
		t.Fatalf("seed %d: RandomSpec: %v", seed, err)
	}
	pol, err := workload.RandomPolicy(s, seed)
	if err != nil {
		t.Fatalf("seed %d: RandomPolicy: %v", seed, err)
	}
	inputs := workload.RandomInputs(s, seed)
	attrs := make([]string, 0, len(inputs))
	for a := range inputs {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	pol.DataLevels[attrs[0]] = privacy.Owner // deterministic taint source
	e, err := exec.NewRunner(s, nil).Run("E", inputs)
	if err != nil {
		t.Fatalf("seed %d: Run: %v", seed, err)
	}
	return e, pol
}

// protectedAncestorLeaks is the independent oracle: walking the raw
// execution's closure directly (not the engine's Set), it returns a
// message for each visible masked item embedding a protected ancestor's
// raw value.
func protectedAncestorLeaks(t testing.TB, full, masked *exec.Execution, pol *privacy.Policy, level privacy.Level) []string {
	t.Helper()
	g := full.Graph()
	cl, err := graph.NewClosure(g)
	if err != nil {
		t.Fatalf("closure: %v", err)
	}
	var leaks []string
	for _, srcID := range full.ItemIDs() {
		src := full.Items[srcID]
		if pol.DataLevels[src.Attr] <= level || src.Value == "" {
			continue
		}
		from := g.Lookup(src.Producer)
		if from < 0 {
			t.Fatalf("producer %s not in graph", src.Producer)
		}
		for _, id := range masked.ItemIDs() {
			it := masked.Items[id]
			prod := g.Lookup(full.Items[id].Producer)
			if prod < 0 || !cl.Reach(from, prod) {
				continue // not a descendant of the protected source
			}
			if strings.Contains(string(it.Value), string(src.Value)) {
				leaks = append(leaks, "item "+id+" ("+it.Attr+") embeds "+src.Attr+"="+string(src.Value)+" at "+level.String())
			}
		}
	}
	return leaks
}

func TestRandomWorkflowsNoProtectedAncestorLeak(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		e, pol := randomTaintedRun(t, seed)
		en := taint.NewEngine(pol, nil)
		set := en.Analyze(e)
		for _, lvl := range allLevels {
			masked, rep := en.Apply(e, lvl, set)
			for _, leak := range protectedAncestorLeaks(t, e, masked, pol, lvl) {
				t.Errorf("seed %d: %s", seed, leak)
			}
			if rep.Total() != len(e.Items) {
				t.Fatalf("seed %d level %s: report total %d != %d", seed, lvl, rep.Total(), len(e.Items))
			}
		}
	}
}

// Monotonicity: whatever is served unmodified at level L is served
// unmodified at every higher level, so the per-level Visible counts
// never decrease as privilege grows.
func TestRandomWorkflowsMaskingMonotone(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		e, pol := randomTaintedRun(t, seed)
		en := taint.NewEngine(pol, nil)
		set := en.Analyze(e)
		prevVisible := -1
		var prevUnmodified map[string]bool
		for _, lvl := range allLevels {
			masked, rep := en.Apply(e, lvl, set)
			unmodified := make(map[string]bool)
			for id, it := range masked.Items {
				if !it.Redacted && it.Value == e.Items[id].Value {
					unmodified[id] = true
				}
			}
			for id := range prevUnmodified {
				if !unmodified[id] {
					t.Errorf("seed %d: item %s unmodified at %s but not at %s",
						seed, id, allLevels[indexOf(lvl)-1], lvl)
				}
			}
			if rep.Visible < prevVisible {
				t.Errorf("seed %d: Visible dropped from %d to %d at %s", seed, prevVisible, rep.Visible, lvl)
			}
			prevVisible = rep.Visible
			prevUnmodified = unmodified
		}
	}
}

func indexOf(l privacy.Level) int {
	for i, x := range allLevels {
		if x == l {
			return i
		}
	}
	return -1
}

// FuzzTaintNoLeak drives the same oracle from the fuzzer: arbitrary
// seeds and levels must never produce a protected-ancestor leak.
func FuzzTaintNoLeak(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(7), uint8(1))
	f.Add(int64(42), uint8(2))
	f.Add(int64(1001), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, lvl uint8) {
		level := allLevels[int(lvl)%len(allLevels)]
		e, pol := randomTaintedRun(t, seed)
		masked, _ := taint.NewEngine(pol, nil).Sanitize(e, level)
		for _, leak := range protectedAncestorLeaks(t, e, masked, pol, level) {
			t.Errorf("seed %d: %s", seed, leak)
		}
	})
}
