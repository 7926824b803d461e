package modpriv

import (
	"provpriv/internal/exec"
	"provpriv/internal/workflow"
)

// WorkflowAnalysis describes a workflow-wide secure-view problem: one
// hidden set of data attributes, applied to every execution of the
// workflow, under which every private module would retain its required Γ.
// Nothing in the module solves it; the facade still exports the type. Attributes are
// hidden globally ("in all executions of the workflow", Section 3),
// because module privacy must hold over repeated executions with varied
// inputs.
type WorkflowAnalysis struct {
	// View is the expansion the adversary is assumed to see (typically
	// the full expansion — the worst case).
	View *workflow.View
	// Relations holds the I/O relation of each analysed module.
	Relations map[string]*Relation
	// Gamma maps private module ids to their required privacy level.
	Gamma map[string]int
	// Weights is the utility lost per hidden attribute.
	Weights Weights
	// Propagate enables the conservative downstream closure: any module
	// consuming a hidden attribute has all its outputs hidden too, so a
	// visible public module can never act as an oracle that re-exposes
	// hidden data (the workflow-privacy correction of [4]).
	Propagate bool
	// Exact selects the exhaustive per-module solver instead of greedy.
	Exact bool
}

// Redact returns a copy of the execution in which every data item whose
// attribute is hidden has its value masked. Graph structure, item ids
// and attributes remain visible — module privacy hides values, not flow
// (structural privacy is a separate mechanism).
func Redact(e *exec.Execution, hidden Hidden) *exec.Execution {
	out := &exec.Execution{
		ID:     e.ID + "/redacted",
		SpecID: e.SpecID,
		Items:  make(map[string]*exec.DataItem, len(e.Items)),
	}
	for _, n := range e.Nodes {
		cp := *n
		out.Nodes = append(out.Nodes, &cp)
	}
	out.Edges = append(out.Edges, e.Edges...)
	for id, it := range e.Items {
		cp := *it
		if hidden[it.Attr] {
			cp.Value = ""
			cp.Redacted = true
		}
		out.Items[id] = &cp
	}
	return out
}
