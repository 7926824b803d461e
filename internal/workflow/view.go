package workflow

import (
	"fmt"
	"sort"
	"strings"

	"provpriv/internal/graph"
)

// ViewEdge is a dataflow edge of an expanded view, carrying the union of
// data attributes that flow between the two (possibly spliced) modules.
type ViewEdge struct {
	From, To string
	Data     []string
}

// FlatModule is a module of an expanded view together with the chain of
// workflow ids that contains it (root first), which records how deeply
// nested the module is.
type FlatModule struct {
	Module *Module
	Path   []string
}

// View is a view of a specification determined by a prefix of its
// expansion hierarchy: composite modules whose subworkflow is in the
// prefix are replaced by their expansions; the rest appear collapsed.
type View struct {
	Spec    *Spec
	Prefix  Prefix
	Modules []*FlatModule
	Edges   []ViewEdge
	byID    map[string]*FlatModule
}

// Expand computes the view of s determined by prefix. The prefix must be
// valid for s's hierarchy, which Expand derives on every call; a caller
// that holds it uses ExpandIn.
func Expand(s *Spec, prefix Prefix) (*View, error) {
	h, err := NewHierarchy(s)
	if err != nil {
		return nil, err
	}
	return ExpandIn(s, h, prefix)
}

// ExpandIn is Expand against s's prebuilt hierarchy h (only the prefix
// check needs it).
func ExpandIn(s *Spec, h *Hierarchy, prefix Prefix) (*View, error) {
	if err := prefix.Validate(h); err != nil {
		return nil, err
	}
	flat, err := expandWorkflow(s, s.Root, prefix, []string{s.Root})
	if err != nil {
		return nil, err
	}
	v := &View{
		Spec:    s,
		Prefix:  prefix,
		Modules: flat.modules,
		byID:    make(map[string]*FlatModule, len(flat.modules)),
	}
	for _, fm := range flat.modules {
		v.byID[fm.Module.ID] = fm
	}
	v.Edges = mergeEdges(flat.edges)
	return v, nil
}

// flatWorkflow is the result of recursively expanding one workflow.
type flatWorkflow struct {
	modules []*FlatModule
	edges   []ViewEdge
	// entries/exits map attribute name -> module ids at the flat level.
	entries map[string][]string
	exits   map[string][]string
}

func expandWorkflow(s *Spec, wid string, prefix Prefix, path []string) (*flatWorkflow, error) {
	w := s.Workflows[wid]
	if w == nil {
		return nil, fmt.Errorf("workflow: missing workflow %s", wid)
	}
	out := &flatWorkflow{
		entries: make(map[string][]string),
		exits:   make(map[string][]string),
	}
	// Recursively expand composite members whose subworkflow is in the
	// prefix; remember each expansion to splice edges.
	expanded := make(map[string]*flatWorkflow) // module id -> expansion
	for _, m := range w.Modules {
		if m.Kind == Composite && prefix.Contains(m.Sub) {
			subPath := append(append([]string(nil), path...), m.Sub)
			sub, err := expandWorkflow(s, m.Sub, prefix, subPath)
			if err != nil {
				return nil, err
			}
			expanded[m.ID] = sub
			out.modules = append(out.modules, sub.modules...)
			out.edges = append(out.edges, sub.edges...)
		} else {
			out.modules = append(out.modules, &FlatModule{Module: m, Path: append([]string(nil), path...)})
		}
	}
	// Splice this workflow's edges through expansions.
	for _, e := range w.Edges {
		srcSub, srcExpanded := expanded[e.From]
		dstSub, dstExpanded := expanded[e.To]
		switch {
		case !srcExpanded && !dstExpanded:
			out.edges = append(out.edges, ViewEdge{From: e.From, To: e.To, Data: append([]string(nil), e.Data...)})
		default:
			// Per-attribute wiring through expansion boundaries.
			for _, a := range e.Data {
				froms := []string{e.From}
				if srcExpanded {
					froms = srcSub.exits[a]
					if len(froms) == 0 {
						return nil, fmt.Errorf("workflow: expansion of %s has no exit for %q", e.From, a)
					}
				}
				tos := []string{e.To}
				if dstExpanded {
					tos = dstSub.entries[a]
					if len(tos) == 0 {
						return nil, fmt.Errorf("workflow: expansion of %s has no entry for %q", e.To, a)
					}
				}
				for _, f := range froms {
					for _, t := range tos {
						out.edges = append(out.edges, ViewEdge{From: f, To: t, Data: []string{a}})
					}
				}
			}
		}
	}
	// Boundary entries/exits of the flat result, mapped through
	// expansions of the original boundary modules.
	for _, m := range w.Modules {
		for _, a := range m.Inputs {
			if !moduleIsEntry(w, m, a) {
				continue
			}
			if sub, ok := expanded[m.ID]; ok {
				out.entries[a] = append(out.entries[a], sub.entries[a]...)
			} else {
				out.entries[a] = append(out.entries[a], m.ID)
			}
		}
		for _, a := range m.Outputs {
			if !moduleIsExit(w, m, a) {
				continue
			}
			if sub, ok := expanded[m.ID]; ok {
				out.exits[a] = append(out.exits[a], sub.exits[a]...)
			} else {
				out.exits[a] = append(out.exits[a], m.ID)
			}
		}
	}
	return out, nil
}

func moduleIsEntry(w *Workflow, m *Module, a string) bool {
	for _, e := range w.Edges {
		if e.To == m.ID && containsStr(e.Data, a) {
			return false
		}
	}
	return true
}

func moduleIsExit(w *Workflow, m *Module, a string) bool {
	for _, e := range w.Edges {
		if e.From == m.ID && containsStr(e.Data, a) {
			return false
		}
	}
	return true
}

// mergeEdges collapses parallel view edges, unioning their data labels,
// and returns them in deterministic order.
func mergeEdges(es []ViewEdge) []ViewEdge {
	type key struct{ f, t string }
	acc := make(map[key]map[string]bool)
	for _, e := range es {
		k := key{e.From, e.To}
		if acc[k] == nil {
			acc[k] = make(map[string]bool)
		}
		for _, a := range e.Data {
			acc[k][a] = true
		}
	}
	keys := make([]key, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].f != keys[j].f {
			return keys[i].f < keys[j].f
		}
		return keys[i].t < keys[j].t
	})
	out := make([]ViewEdge, 0, len(keys))
	for _, k := range keys {
		attrs := make([]string, 0, len(acc[k]))
		for a := range acc[k] {
			attrs = append(attrs, a)
		}
		sort.Strings(attrs)
		out = append(out, ViewEdge{From: k.f, To: k.t, Data: attrs})
	}
	return out
}

// Module returns the flat module with the given id, or nil.
//
//provlint:ignore unserved test support: search, repo and workflow tests look modules up in a view (search_test.go, generation_test.go, view_test.go)
func (v *View) Module(id string) *FlatModule { return v.byID[id] }

// ModuleIDs returns the ids of all modules in the view, sorted.
func (v *View) ModuleIDs() []string {
	ids := make([]string, 0, len(v.Modules))
	for _, fm := range v.Modules {
		ids = append(ids, fm.Module.ID)
	}
	sort.Strings(ids)
	return ids
}

// Graph returns the view as a directed graph over module ids.
func (v *View) Graph() *graph.Graph {
	g := graph.New()
	for _, fm := range v.Modules {
		g.AddNode(fm.Module.ID)
	}
	for _, e := range v.Edges {
		g.AddEdge(g.Lookup(e.From), g.Lookup(e.To))
	}
	return g
}

// BuildGraph returns the plain (unexpanded) graph of a single workflow.
func BuildGraph(w *Workflow) (*graph.Graph, error) {
	g := graph.New()
	for _, m := range w.Modules {
		g.AddNode(m.ID)
	}
	for _, e := range w.Edges {
		u, t := g.Lookup(e.From), g.Lookup(e.To)
		if u == graph.Invalid || t == graph.Invalid {
			return nil, fmt.Errorf("workflow: edge %s->%s references missing module", e.From, e.To)
		}
		g.AddEdge(u, t)
	}
	if !g.IsAcyclic() {
		return nil, fmt.Errorf("workflow: %s contains a cycle", w.ID)
	}
	return g, nil
}

// ASCII renders the view as text: one line per edge with data labels,
// in deterministic order (used by cmd/figures for Figs. 1 and 5).
func (v *View) ASCII() string {
	var b strings.Builder
	fmt.Fprintf(&b, "view of %s, prefix {%s}\n", v.Spec.ID, strings.Join(v.Prefix.IDs(), ", "))
	fmt.Fprintf(&b, "modules: %s\n", strings.Join(v.ModuleIDs(), ", "))
	for _, e := range v.Edges {
		fmt.Fprintf(&b, "  %s -> %s  [%s]\n", e.From, e.To, strings.Join(e.Data, ","))
	}
	return b.String()
}

// DOT renders the view in Graphviz format; composite (collapsed) modules
// are drawn as double octagons, sources/sinks as circles.
func (v *View) DOT() string {
	g := v.Graph()
	kindOf := make(map[string]Kind, len(v.Modules))
	nameOf := make(map[string]string, len(v.Modules))
	for _, fm := range v.Modules {
		kindOf[fm.Module.ID] = fm.Module.Kind
		nameOf[fm.Module.ID] = fm.Module.Name
	}
	dataOf := make(map[[2]string]string, len(v.Edges))
	for _, e := range v.Edges {
		dataOf[[2]string{e.From, e.To}] = strings.Join(e.Data, ",")
	}
	return g.DOT(graph.DotOptions{
		Name:    v.Spec.ID,
		Rankdir: "TB",
		NodeAttrs: func(n graph.NodeID) string {
			id := g.Name(n)
			label := fmt.Sprintf("label=%q", id+"\\n"+nameOf[id])
			switch kindOf[id] {
			case Composite:
				return label + ",shape=doubleoctagon"
			case Source, Sink:
				return label + ",shape=circle"
			default:
				return label + ",shape=box"
			}
		},
		EdgeAttrs: func(e graph.Edge) string {
			return fmt.Sprintf("label=%q", dataOf[[2]string{g.Name(e.U), g.Name(e.V)}])
		},
	})
}
