// Package workflow models hierarchical workflow specifications as in
// Davidson et al., "Enabling Privacy in Provenance-Aware Workflow
// Systems" (CIDR 2011), Section 2: graphs whose nodes are modules and
// whose edges carry named data attributes, where a composite module is
// defined (via a τ-expansion) by a subworkflow. The τ relationships form
// an expansion hierarchy; prefixes of that hierarchy define views of the
// specification.
package workflow

import (
	"fmt"
	"sort"
	"strings"
)

// Kind classifies a module.
type Kind int

const (
	// Atomic modules have opaque behaviour and no expansion.
	Atomic Kind = iota
	// Composite modules are defined by a subworkflow (τ-expansion).
	Composite
	// Source is the distinguished workflow input node (I in the paper).
	Source
	// Sink is the distinguished workflow output node (O in the paper).
	Sink
)

func (k Kind) String() string {
	switch k {
	case Atomic:
		return "atomic"
	case Composite:
		return "composite"
	case Source:
		return "source"
	case Sink:
		return "sink"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Module is a node of a workflow graph. Inputs and Outputs name the
// data attributes the module consumes and produces; dataflow edges carry
// subsets of these attribute names.
type Module struct {
	ID       string   `json:"id"`
	Name     string   `json:"name"`
	Kind     Kind     `json:"kind"`
	Sub      string   `json:"sub,omitempty"` // subworkflow id when Kind == Composite
	Inputs   []string `json:"inputs,omitempty"`
	Outputs  []string `json:"outputs,omitempty"`
	Keywords []string `json:"keywords,omitempty"`
}

// AllKeywords returns the module's searchable terms: its explicit
// Keywords plus the lower-cased tokens of its Name.
func (m *Module) AllKeywords() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(s string) {
		s = strings.ToLower(strings.TrimSpace(s))
		if s != "" && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, t := range strings.FieldsFunc(m.Name, func(r rune) bool {
		return r == ' ' || r == '-' || r == '_' || r == ',' || r == '/'
	}) {
		add(t)
	}
	for _, k := range m.Keywords {
		add(k)
	}
	return out
}

// Consumes reports whether the module consumes attribute a.
func (m *Module) Consumes(a string) bool { return containsStr(m.Inputs, a) }

// Produces reports whether the module produces attribute a.
func (m *Module) Produces(a string) bool { return containsStr(m.Outputs, a) }

func containsStr(s []string, x string) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

// Edge is a dataflow edge between two modules of the same workflow,
// carrying the named data attributes.
type Edge struct {
	From string   `json:"from"`
	To   string   `json:"to"`
	Data []string `json:"data"`
}

// Workflow is a single (sub)workflow graph: a set of modules and the
// dataflow edges between them.
type Workflow struct {
	ID      string    `json:"id"`
	Name    string    `json:"name"`
	Modules []*Module `json:"modules"`
	Edges   []Edge    `json:"edges"`
}

// Module returns the module with the given id, or nil.
func (w *Workflow) Module(id string) *Module {
	for _, m := range w.Modules {
		if m.ID == id {
			return m
		}
	}
	return nil
}

// Entries returns the modules of w that consume attribute a and have no
// incoming edge within w carrying a — i.e. the modules an external
// producer of a should be wired to when w is spliced into its parent.
func (w *Workflow) Entries(a string) []*Module {
	fed := make(map[string]bool)
	for _, e := range w.Edges {
		if containsStr(e.Data, a) {
			fed[e.To] = true
		}
	}
	var out []*Module
	for _, m := range w.Modules {
		if m.Consumes(a) && !fed[m.ID] {
			out = append(out, m)
		}
	}
	return out
}

// Exits returns the modules of w that produce attribute a and have no
// outgoing edge within w carrying a — the modules an external consumer
// of a should be wired from.
func (w *Workflow) Exits(a string) []*Module {
	drained := make(map[string]bool)
	for _, e := range w.Edges {
		if containsStr(e.Data, a) {
			drained[e.From] = true
		}
	}
	var out []*Module
	for _, m := range w.Modules {
		if m.Produces(a) && !drained[m.ID] {
			out = append(out, m)
		}
	}
	return out
}

// Spec is a complete hierarchical workflow specification: a root
// workflow plus the subworkflows reachable from it through composite
// modules.
type Spec struct {
	ID        string               `json:"id"`
	Name      string               `json:"name"`
	Root      string               `json:"root"`
	Workflows map[string]*Workflow `json:"workflows"`
}

// RootWorkflow returns the root workflow.
func (s *Spec) RootWorkflow() *Workflow { return s.Workflows[s.Root] }

// WorkflowIDs returns all workflow ids in sorted order.
func (s *Spec) WorkflowIDs() []string {
	ids := make([]string, 0, len(s.Workflows))
	for id := range s.Workflows {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// FindModule returns the module with the given id and the workflow that
// contains it, or (nil, nil). Module ids are unique in a validated spec;
// in one that is not, the workflow whose id sorts first wins. Code that
// holds the spec's Hierarchy resolves through its Module table instead of
// scanning here.
//
//provlint:ignore unserved reference: workflow_test.go holds Hierarchy.Module to it; search and repo tests resolve modules with it
func (s *Spec) FindModule(id string) (*Module, *Workflow) {
	var found *Module
	var in *Workflow
	var first string // key of in
	for wid, w := range s.Workflows {
		if in != nil && wid > first {
			continue
		}
		if m := w.Module(id); m != nil {
			found, in, first = m, w, wid
		}
	}
	return found, in
}

// Validate checks structural well-formedness:
//   - the root workflow exists;
//   - module ids are unique across the whole spec;
//   - every edge references modules of its workflow, and its data labels
//     are produced by the source and consumed by the target;
//   - every composite module references an existing subworkflow;
//   - the τ-relationships form a tree rooted at Root (the expansion
//     hierarchy), with every workflow reachable;
//   - every workflow graph is acyclic;
//   - for every composite module, each of its input attributes has an
//     entry in its subworkflow and each output attribute an exit.
func (s *Spec) Validate() error {
	if s.Workflows[s.Root] == nil {
		return fmt.Errorf("workflow: spec %s: root workflow %q missing", s.ID, s.Root)
	}
	seen := make(map[string]string) // module id -> workflow id
	for _, wid := range s.WorkflowIDs() {
		w := s.Workflows[wid]
		if w.ID != wid {
			return fmt.Errorf("workflow: spec %s: workflow key %q has id %q", s.ID, wid, w.ID)
		}
		for _, m := range w.Modules {
			if prev, dup := seen[m.ID]; dup {
				return fmt.Errorf("workflow: module id %q appears in both %s and %s", m.ID, prev, wid)
			}
			seen[m.ID] = wid
		}
	}
	parent := make(map[string]string) // sub workflow -> parent workflow
	for _, wid := range s.WorkflowIDs() {
		w := s.Workflows[wid]
		for _, m := range w.Modules {
			if m.Kind != Composite {
				if m.Sub != "" {
					return fmt.Errorf("workflow: non-composite module %s has expansion %q", m.ID, m.Sub)
				}
				continue
			}
			sub := s.Workflows[m.Sub]
			if sub == nil {
				return fmt.Errorf("workflow: composite %s references missing subworkflow %q", m.ID, m.Sub)
			}
			if p, dup := parent[m.Sub]; dup {
				return fmt.Errorf("workflow: subworkflow %s expanded by modules in both %s and %s", m.Sub, p, wid)
			}
			parent[m.Sub] = wid
			for _, a := range m.Inputs {
				if len(sub.Entries(a)) == 0 {
					return fmt.Errorf("workflow: subworkflow %s has no entry for input %q of %s", m.Sub, a, m.ID)
				}
			}
			for _, a := range m.Outputs {
				if len(sub.Exits(a)) == 0 {
					return fmt.Errorf("workflow: subworkflow %s has no exit for output %q of %s", m.Sub, a, m.ID)
				}
			}
		}
		if err := s.validateEdges(w); err != nil {
			return err
		}
		if _, err := BuildGraph(w); err != nil {
			return fmt.Errorf("workflow: %s: %w", wid, err)
		}
	}
	// Hierarchy must be a tree rooted at Root covering all workflows.
	if _, ok := parent[s.Root]; ok {
		return fmt.Errorf("workflow: root %s appears as a subworkflow", s.Root)
	}
	for _, wid := range s.WorkflowIDs() {
		if wid == s.Root {
			continue
		}
		// Walk up to the root, guarding against cycles.
		cur, steps := wid, 0
		for cur != s.Root {
			p, ok := parent[cur]
			if !ok {
				return fmt.Errorf("workflow: workflow %s unreachable from root", wid)
			}
			cur = p
			if steps++; steps > len(s.Workflows) {
				return fmt.Errorf("workflow: τ-expansion cycle involving %s", wid)
			}
		}
	}
	return nil
}

func (s *Spec) validateEdges(w *Workflow) error {
	for _, e := range w.Edges {
		from, to := w.Module(e.From), w.Module(e.To)
		if from == nil || to == nil {
			return fmt.Errorf("workflow: %s: edge %s->%s references missing module", w.ID, e.From, e.To)
		}
		if len(e.Data) == 0 {
			return fmt.Errorf("workflow: %s: edge %s->%s carries no data", w.ID, e.From, e.To)
		}
		for _, a := range e.Data {
			if !from.Produces(a) {
				return fmt.Errorf("workflow: %s: edge %s->%s carries %q not produced by %s", w.ID, e.From, e.To, a, e.From)
			}
			if !to.Consumes(a) {
				return fmt.Errorf("workflow: %s: edge %s->%s carries %q not consumed by %s", w.ID, e.From, e.To, a, e.To)
			}
		}
	}
	return nil
}
