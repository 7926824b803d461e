package modpriv

import "provpriv/internal/exec"

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
