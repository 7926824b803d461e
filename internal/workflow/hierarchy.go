package workflow

import (
	"fmt"
	"sort"
	"strings"

	"provpriv/internal/graph"
)

// Hierarchy is the expansion hierarchy of a specification (Fig. 3 of the
// paper): a tree whose nodes are workflow ids, with W' a child of W when
// some composite module of W expands to W'.
type Hierarchy struct {
	Root     string
	parent   map[string]string
	children map[string][]string
	// viaModule records which composite module introduces each child.
	viaModule map[string]string
	// chains resolves a workflow to its root chain, built once in BFS
	// order; len(chains) is len(All()).
	chains map[string]rootChain
	// modules resolves a module id to where the hierarchy places it: what
	// Spec.FindModule answers, without the scan, plus the workflow's chain.
	modules map[string]Placement
}

// Placement is where the hierarchy puts a module: the module, the workflow
// holding it, and that workflow's root chain (nil when the workflow is not
// reachable from the root) with the chain's key — what a search match
// reads, from one lookup. Chain belongs to the hierarchy: read-only.
type Placement struct {
	Module   *Module
	Workflow *Workflow
	Chain    []string
	ChainKey string
}

// rootChain is the path of workflow ids from the root down to one
// workflow, and the same path "/"-joined: the order two chains of equal
// length are ranked in.
type rootChain struct {
	ids []string
	key string
}

// NewHierarchy derives the expansion hierarchy from a validated spec.
func NewHierarchy(s *Spec) (*Hierarchy, error) {
	h := &Hierarchy{
		Root:      s.Root,
		parent:    make(map[string]string),
		children:  make(map[string][]string),
		viaModule: make(map[string]string),
		modules:   make(map[string]Placement),
	}
	for _, wid := range s.WorkflowIDs() {
		w := s.Workflows[wid]
		for _, m := range w.Modules {
			if _, dup := h.modules[m.ID]; !dup {
				h.modules[m.ID] = Placement{Module: m, Workflow: w}
			}
			if m.Kind != Composite {
				continue
			}
			if _, dup := h.parent[m.Sub]; dup {
				return nil, fmt.Errorf("workflow: %s has multiple parents", m.Sub)
			}
			h.parent[m.Sub] = wid
			h.children[wid] = append(h.children[wid], m.Sub)
			h.viaModule[m.Sub] = m.ID
		}
	}
	for wid := range h.children {
		sort.Strings(h.children[wid])
	}
	all := h.All()
	h.chains = make(map[string]rootChain, len(all))
	for _, wid := range all { // parents come before their children
		ids := []string{wid}
		if wid != h.Root {
			up := h.chains[h.parent[wid]].ids
			ids = append(up[:len(up):len(up)], wid)
		}
		h.chains[wid] = rootChain{ids: ids, key: strings.Join(ids, "/")}
	}
	for id, at := range h.modules {
		c := h.chains[at.Workflow.ID]
		at.Chain, at.ChainKey = c.ids, c.key
		h.modules[id] = at
	}
	return h, nil
}

// Module returns the module with the given id and the workflow that
// contains it, or (nil, nil): Spec.FindModule's answer from a table built
// with the hierarchy.
func (h *Hierarchy) Module(id string) (*Module, *Workflow) {
	at := h.modules[id]
	return at.Module, at.Workflow
}

// Place returns where the hierarchy puts the module with the given id
// (the zero Placement if there is none).
func (h *Hierarchy) Place(id string) Placement { return h.modules[id] }

// Parent returns the parent workflow of wid ("" for the root).
func (h *Hierarchy) Parent(wid string) string { return h.parent[wid] }

// ViaModule returns the composite module whose expansion introduces wid.
func (h *Hierarchy) ViaModule(wid string) string { return h.viaModule[wid] }

// Chain returns the workflow ids on the path from the root down to wid,
// both included, or nil if wid is not reachable from the root. The slice
// belongs to the hierarchy: read-only.
func (h *Hierarchy) Chain(wid string) []string { return h.chains[wid].ids }

// Depth returns the number of edges from the root to wid (root = 0),
// or -1 if wid is not in the hierarchy.
func (h *Hierarchy) Depth(wid string) int { return len(h.chains[wid].ids) - 1 }

// All returns every workflow id in the hierarchy in BFS order from the
// root.
func (h *Hierarchy) All() []string {
	var out []string
	queue := []string{h.Root}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		out = append(out, w)
		queue = append(queue, h.children[w]...)
	}
	return out
}

// Size returns the number of workflows in the hierarchy — len(All())
// without building the list, for the "is this prefix the full
// expansion?" test every enforced view makes.
func (h *Hierarchy) Size() int { return len(h.chains) }

// Graph returns the hierarchy as a directed graph (parent -> child).
func (h *Hierarchy) Graph() *graph.Graph {
	g := graph.New()
	for _, w := range h.All() {
		g.AddNode(w)
	}
	for _, w := range h.All() {
		for _, c := range h.children[w] {
			g.AddEdge(g.Lookup(w), g.Lookup(c))
		}
	}
	return g
}

// ASCII renders the hierarchy as an indented tree (regenerates Fig. 3).
func (h *Hierarchy) ASCII() string {
	var b strings.Builder
	var walk func(wid string, depth int)
	walk = func(wid string, depth int) {
		fmt.Fprintf(&b, "%s%s\n", strings.Repeat("  ", depth), wid)
		for _, c := range h.children[wid] {
			walk(c, depth+1)
		}
	}
	walk(h.Root, 0)
	return b.String()
}

// Prefix is a prefix of the expansion hierarchy: a set of workflow ids
// containing the root and closed under parents. Per the paper, a prefix
// determines a view of the specification in which exactly the composite
// modules whose subworkflow is in the prefix are replaced by their
// expansions.
type Prefix map[string]bool

// NewPrefix builds a Prefix from workflow ids.
func NewPrefix(ids ...string) Prefix {
	p := make(Prefix, len(ids))
	for _, id := range ids {
		p[id] = true
	}
	return p
}

// Contains reports whether wid is in the prefix.
func (p Prefix) Contains(wid string) bool { return p[wid] }

// IDs returns the prefix's workflow ids in sorted order.
func (p Prefix) IDs() []string {
	out := make([]string, 0, len(p))
	for id := range p {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Key returns a canonical string for the prefix, for use as a cache key:
// the sorted ids, each %q-quoted, so no id can forge a separator and equal
// prefixes — however they were arrived at — have equal keys.
func (p Prefix) Key() string { return fmt.Sprintf("%q", p.IDs()) }

// Validate checks that p is a legal prefix of h: non-empty, contains the
// root, every member's parent is a member, and every member exists.
func (p Prefix) Validate(h *Hierarchy) error {
	if !p[h.Root] {
		return fmt.Errorf("workflow: prefix must contain root %s", h.Root)
	}
	for wid := range p {
		if wid == h.Root {
			continue
		}
		parent, ok := h.parent[wid]
		if !ok {
			return fmt.Errorf("workflow: prefix member %s not in hierarchy", wid)
		}
		if !p[parent] {
			return fmt.Errorf("workflow: prefix not closed: %s present but parent %s absent", wid, parent)
		}
	}
	return nil
}

// FullPrefix returns the prefix containing every workflow (the full
// expansion view).
func FullPrefix(h *Hierarchy) Prefix {
	p := make(Prefix)
	for _, w := range h.All() {
		p[w] = true
	}
	return p
}

// Prefixes enumerates every legal prefix of h. The count is exponential
// in the hierarchy size; callers should bound the hierarchy.
//
//provlint:ignore unserved test support: root, exec, search and workflow tests enumerate every prefix (bench_test.go, view_test.go, shown_test.go)
func Prefixes(h *Hierarchy) []Prefix {
	all := h.All()
	// Order children after parents (BFS already does), then do a simple
	// recursive inclusion respecting the parent-closure constraint.
	var out []Prefix
	var rec func(i int, cur Prefix)
	rec = func(i int, cur Prefix) {
		if i == len(all) {
			cp := make(Prefix, len(cur))
			for k := range cur {
				cp[k] = true
			}
			out = append(out, cp)
			return
		}
		wid := all[i]
		if wid == h.Root {
			cur[wid] = true
			rec(i+1, cur)
			return
		}
		// Exclude wid (and implicitly its descendants, handled by the
		// parent check below).
		rec(i+1, cur)
		if cur[h.parent[wid]] {
			cur[wid] = true
			rec(i+1, cur)
			delete(cur, wid)
		}
	}
	rec(0, make(Prefix))
	return out
}
