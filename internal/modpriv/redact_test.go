package modpriv

import (
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/workflow"
)

// chainSpec builds I -> P (private) -> Q (public) -> O where P computes
// y = a XOR b and Q computes w = NOT y. If y is hidden but w visible, Q
// re-exposes y: redaction hides values, not the flow that carries them.
func chainSpec(t *testing.T) (*workflow.Spec, *workflow.View) {
	t.Helper()
	s, err := workflow.NewBuilder("chain", "Chain", "R").
		Workflow("R", "Root").
		Source("I", "a", "b").
		Atomic("P", "Private XOR", []string{"a", "b"}, []string{"y"}).
		Atomic("Q", "Public NOT", []string{"y"}, []string{"w"}).
		Sink("O", "w").
		Edge("I", "P", "a", "b").
		Edge("P", "Q", "y").
		Edge("Q", "O", "w").
		Build()
	if err != nil {
		t.Fatalf("chainSpec: %v", err)
	}
	h, _ := workflow.NewHierarchy(s)
	v, err := workflow.Expand(s, workflow.FullPrefix(h))
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	return s, v
}

func notFunc(in map[string]exec.Value) map[string]exec.Value {
	v := "1"
	if in["y"] == "1" {
		v = "0"
	}
	return map[string]exec.Value{"w": exec.Value(v)}
}

func TestRedact(t *testing.T) {
	spec, _ := chainSpec(t)
	r := exec.NewRunner(spec, exec.Registry{"P": xorFunc, "Q": notFunc})
	e, err := r.Run("E", map[string]exec.Value{"a": "1", "b": "0"})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	red := Redact(e, NewHidden("y"))
	if err := red.Validate(); err != nil {
		t.Fatalf("redacted invalid: %v", err)
	}
	var sawY, sawA bool
	for _, id := range red.ItemIDs() {
		it := red.Items[id]
		switch it.Attr {
		case "y":
			sawY = true
			if !it.Redacted || it.Value != "" {
				t.Fatalf("y not redacted: %+v", it)
			}
		case "a":
			sawA = true
			if it.Redacted || it.Value != "1" {
				t.Fatalf("a wrongly redacted: %+v", it)
			}
		}
	}
	if !sawY || !sawA {
		t.Fatal("items missing from redacted execution")
	}
	// Original untouched.
	for _, id := range e.ItemIDs() {
		if e.Items[id].Redacted {
			t.Fatal("Redact mutated original")
		}
	}
	// Structure preserved.
	if len(red.Edges) != len(e.Edges) || len(red.Nodes) != len(e.Nodes) {
		t.Fatal("Redact changed graph structure")
	}
}

// Property: the adversary's view of a Γ-private module is consistent —
// for every input row, at least Γ candidate outputs exist, one of which
// is the true output.
func TestGammaSemantics(t *testing.T) {
	rel := xorRelation(t)
	hidden := NewHidden("a") // level 2
	// Recompute OUT_x by brute force and compare with PrivacyLevel's
	// group arithmetic.
	for _, row := range rel.Rows {
		ik := projKey(rel.Inputs, row.In, hidden)
		outs := make(map[string]bool)
		for _, other := range rel.Rows {
			if projKey(rel.Inputs, other.In, hidden) == ik {
				outs[projKey(rel.Outputs, other.Out, hidden)] = true
			}
		}
		if len(outs) < 2 {
			t.Fatalf("row %v: brute-force OUT_x = %d < 2", row.In, len(outs))
		}
		// The true output is among the candidates.
		if !outs[projKey(rel.Outputs, row.Out, hidden)] {
			t.Fatalf("row %v: true output not a candidate", row.In)
		}
	}
}
