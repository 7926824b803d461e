package exec

import (
	"cmp"
	"fmt"
	"slices"

	"provpriv/internal/graph"
	"provpriv/internal/workflow"
)

// Collapse computes the view of an execution determined by a prefix of
// the spec's expansion hierarchy (Section 2 / Fig. 2): every composite
// module execution whose subworkflow is NOT in the prefix is collapsed
// into a single node "proc:module", absorbing its begin/end pair and
// everything executed inside it. Edges are remapped, self-loops dropped,
// and only data items visible on surviving edges are retained — hidden
// intermediate data is exactly what the view conceals.
//
// The returned view is fully validated (Validate's checks, acyclicity
// included) and shares no mutable state with e: the caller owns it.
// Collapse derives the spec's hierarchy on every call; a caller that
// holds one, or wants the view's graph, uses CollapseIn.
func Collapse(e *Execution, spec *workflow.Spec, prefix workflow.Prefix) (*Execution, error) {
	h, err := workflow.NewHierarchy(spec)
	if err != nil {
		return nil, err
	}
	view, g, err := CollapseIn(e, h, prefix)
	if err != nil {
		return nil, err
	}
	if !g.IsAcyclic() {
		return nil, fmt.Errorf("exec: collapse produced invalid view: %w", errCycle)
	}
	return view, nil
}

// CollapseIn is Collapse against the spec's prebuilt hierarchy h, and it
// also returns the view's graph — built once, here, while the view is
// validated — so whoever indexes the view next (query.PrepareGraph,
// ProvenanceIn) does not derive it again. The view has passed every
// check of Validate except acyclicity: the caller settles that with the
// topological sort it runs anyway (query.PrepareGraph fails on a cycle;
// Collapse asks g.IsAcyclic) and must not serve the view before it has.
// The caller owns the view outright — nodes, frames, edges, item slices
// and items are all fresh — and may mask it in place; e is only read.
func CollapseIn(e *Execution, h *workflow.Hierarchy, prefix workflow.Prefix) (*Execution, *graph.Graph, error) {
	if err := prefix.Validate(h); err != nil {
		return nil, nil, err
	}

	view := &Execution{
		ID:     e.ID + "/view",
		SpecID: e.SpecID,
		Nodes:  make([]*Node, 0, len(e.Nodes)),
	}
	// repr maps every original node to the view node representing it:
	// the outermost enclosing composite execution whose subworkflow the
	// prefix hides, else the node itself.
	repr := make(map[string]string, len(e.Nodes))
	seen := make(map[string]bool, len(e.Nodes))
	var hidden Frame    // the last collapsed composite, and its node id:
	var hiddenID string // its members are adjacent, so the id is built once
	for _, n := range e.Nodes {
		vn := Node{ID: n.ID, Module: n.Module, Proc: n.Proc, Kind: n.Kind}
		frames := n.Frames
		for i, f := range n.Frames {
			if !prefix.Contains(f.Sub) {
				if f != hidden {
					hidden, hiddenID = f, f.Proc+":"+f.Module
				}
				// Appears as a single module execution.
				vn = Node{ID: hiddenID, Module: f.Module, Proc: f.Proc, Kind: AtomicNode}
				frames = n.Frames[:i]
				break
			}
		}
		repr[n.ID] = vn.ID
		if !seen[vn.ID] {
			seen[vn.ID] = true
			added := vn // only a node the view keeps reaches the heap
			added.Frames = append([]Frame(nil), frames...)
			view.Nodes = append(view.Nodes, &added)
		}
	}

	// Merge the edges that land on the same view pair: collect every
	// surviving edge's items under its pair, then sort and de-duplicate
	// each list once.
	at := make(map[[2]string]int, len(e.Edges))
	view.Edges = make([]Edge, 0, len(e.Edges))
	nItems := 0
	for _, ed := range e.Edges {
		f, t := repr[ed.From], repr[ed.To]
		if f == t {
			continue // internal to a collapsed composite
		}
		k := [2]string{f, t}
		i, ok := at[k]
		if !ok {
			i = len(view.Edges)
			at[k] = i
			view.Edges = append(view.Edges, Edge{From: f, To: t, Items: make([]string, 0, len(ed.Items))})
		}
		view.Edges[i].Items = append(view.Edges[i].Items, ed.Items...)
		nItems += len(ed.Items)
	}
	slices.SortFunc(view.Edges, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	view.Items = make(map[string]*DataItem, min(nItems, len(e.Items)))
	for i := range view.Edges {
		ed := &view.Edges[i]
		sortItemIDs(ed.Items)
		ed.Items = slices.Compact(ed.Items)
		for _, it := range ed.Items {
			if view.Items[it] != nil {
				continue
			}
			orig := e.Items[it]
			if orig == nil {
				return nil, nil, fmt.Errorf("exec: collapse: edge %s->%s carries unknown item %q", ed.From, ed.To, it)
			}
			cp := *orig
			cp.Producer = repr[orig.Producer]
			view.Items[it] = &cp
		}
	}
	g, err := view.checkedGraph()
	if err != nil {
		return nil, nil, fmt.Errorf("exec: collapse produced invalid view: %w", err)
	}
	return view, g, nil
}

// VisibleItems returns the ids of the data items visible in the view of
// e under prefix — the complement of what the view hides.
func VisibleItems(e *Execution, spec *workflow.Spec, prefix workflow.Prefix) ([]string, error) {
	v, err := Collapse(e, spec, prefix)
	if err != nil {
		return nil, err
	}
	return v.ItemIDs(), nil
}
