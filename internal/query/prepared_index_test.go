package query

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// TestPreparedExecIndexParity pins the PreparedExec id indexes to the
// linear-scan reference implementations they replaced on the warm path:
// Execution.Node for node resolution, and the producedBy/flowingFrom
// free functions (kept in this package as the executable spec) for
// return-item resolution. Any divergence is a bug in the index build.
func TestPreparedExecIndexParity(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		s, err := workload.RandomSpec(workload.SpecConfig{
			Seed: seed, ID: fmt.Sprintf("s%d", seed), Depth: 3, Fanout: 2, Chain: 4, SkipProb: 0.2,
		})
		if err != nil {
			t.Fatalf("RandomSpec: %v", err)
		}
		e, err := exec.NewRunner(s, nil).Run("E", workload.RandomInputs(s, seed))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		pe, err := PrepareExec(e)
		if err != nil {
			t.Fatalf("PrepareExec: %v", err)
		}
		for _, n := range e.Nodes {
			if got := pe.nodeByID[n.ID]; got != n {
				t.Fatalf("seed %d: nodeByID[%s] = %p, want %p", seed, n.ID, got, n)
			}
			if got, want := fmt.Sprint(pe.producedBy[n.ID]), fmt.Sprint(producedBy(e, n.ID)); got != want {
				t.Fatalf("seed %d: producedBy(%s): %s != %s", seed, n.ID, got, want)
			}
			if got, want := fmt.Sprint(pe.flowsFrom[n.ID]), fmt.Sprint(flowingFrom(e, n.ID)); got != want {
				t.Fatalf("seed %d: flowsFrom(%s): %s != %s", seed, n.ID, got, want)
			}
			ref := producedBy(e, n.ID)
			if len(ref) == 0 {
				ref = flowingFrom(e, n.ID)
			}
			if got := fmt.Sprint(pe.returnItems(n.ID)); got != fmt.Sprint(ref) {
				t.Fatalf("seed %d: returnItems(%s): %s != %s", seed, n.ID, got, ref)
			}
		}
		if pe.nodeByID["no-such-node"] != nil {
			t.Fatal("unknown id resolved")
		}
	}
}

// TestPreparedExecIndexOnDiseaseExample covers the fixture spec, whose
// begin/end composite relay nodes exercise the flowsFrom fallback.
func TestPreparedExecIndexOnDiseaseExample(t *testing.T) {
	s := workflow.DiseaseSusceptibility()
	e, err := exec.NewRunner(s, nil).Run("E1", map[string]exec.Value{
		"snps": "rs1", "ethnicity": "eth1", "lifestyle": "active",
		"family_history": "fh1", "symptoms": "none",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	pe, err := PrepareExec(e)
	if err != nil {
		t.Fatalf("PrepareExec: %v", err)
	}
	relays := 0
	for _, n := range e.Nodes {
		if n.Kind == exec.BeginNode && len(pe.producedBy[n.ID]) == 0 && len(pe.flowsFrom[n.ID]) > 0 {
			relays++
		}
	}
	if relays == 0 {
		t.Fatal("no relay node exercised the flowsFrom fallback")
	}
}

// TestCyclicExecutionIsRefused: a cycle must stop an execution at every
// gate it can reach — Validate, PrepareExec, and the collapse-then-
// prepare path the repository's fill takes, where CollapseIn leaves
// acyclicity to PrepareGraph's topological sort — with an error that
// says so.
func TestCyclicExecutionIsRefused(t *testing.T) {
	s := workflow.DiseaseSusceptibility()
	h, err := workflow.NewHierarchy(s)
	if err != nil {
		t.Fatal(err)
	}
	e, err := exec.NewRunner(s, nil).Run("E1", map[string]exec.Value{
		"snps": "rs1", "ethnicity": "eth1", "lifestyle": "active",
		"family_history": "fh1", "symptoms": "none",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Close a cycle by hand: the last edge's item also flows back.
	last := e.Edges[len(e.Edges)-1]
	e.Edges = append(e.Edges, exec.Edge{From: last.To, To: e.Edges[0].From, Items: last.Items})
	names := func(gate string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "cycle") {
			t.Fatalf("%s on a cyclic execution: err = %v, want one naming the cycle", gate, err)
		}
	}
	names("Validate", e.Validate())
	_, err = PrepareExec(e)
	names("PrepareExec", err)
	for _, prefix := range []workflow.Prefix{workflow.FullPrefix(h), workflow.NewPrefix(h.Root)} {
		_, err = exec.Collapse(e, s, prefix)
		names("Collapse", err)
		view, g, err := exec.CollapseIn(e, h, prefix)
		if err != nil {
			t.Fatalf("CollapseIn: %v (acyclicity is PrepareGraph's to establish)", err)
		}
		_, err = PrepareGraph(view, g)
		names("CollapseIn + PrepareGraph", err)
	}
}

// producedBy and flowingFrom are the linear-scan reference
// implementations of the PreparedExec return-item indexes; they are kept
// as the executable spec TestPreparedExecIndexParity checks against.
func producedBy(e *exec.Execution, nodeID string) []string {
	var out []string
	for id, it := range e.Items {
		if it.Producer == nodeID {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

func flowingFrom(e *exec.Execution, nodeID string) []string {
	set := make(map[string]bool)
	for _, ed := range e.Edges {
		if ed.From == nodeID {
			for _, it := range ed.Items {
				set[it] = true
			}
		}
	}
	var out []string
	for it := range set {
		out = append(out, it)
	}
	sort.Strings(out)
	return out
}
