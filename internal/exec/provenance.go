package exec

import (
	"fmt"

	"provpriv/internal/graph"
)

// ProvenanceIn returns the provenance of a data item: the sub-execution
// induced by all nodes on paths from the execution's source node(s) to
// the node that produced the item (Section 2: "the subgraph induced by
// the set of paths from the start node ... that produced d as output").
// Items on dropped edges are omitted; the queried item itself is kept.
// g is e's graph (e.Graph(), or one a view plan already derived); it is
// only read.
func ProvenanceIn(e *Execution, g *graph.Graph, itemID string) (*Execution, error) {
	it := e.Items[itemID]
	if it == nil {
		return nil, fmt.Errorf("exec: unknown data item %q", itemID)
	}
	prod := g.Lookup(it.Producer)
	if prod == -1 {
		return nil, fmt.Errorf("exec: item %s has unknown producer %q", itemID, it.Producer)
	}
	keepIDs := g.ReachingTo(prod)
	keep := make(map[string]bool, len(keepIDs))
	for _, n := range keepIDs {
		keep[g.Name(n)] = true
	}
	return induced(e, keep, e.ID+"/prov("+itemID+")", map[string]bool{itemID: true}), nil
}

// Downstream returns the ids of all data items whose production lies
// downstream of the given item's producer — the "what downstream data
// might have been affected" provenance query from the paper's
// introduction. The queried item itself is included.
func Downstream(e *Execution, itemID string) ([]string, error) {
	return DownstreamIn(e, e.Graph(), itemID)
}

// DownstreamIn is Downstream reusing a graph already derived from e.
func DownstreamIn(e *Execution, g *graph.Graph, itemID string) ([]string, error) {
	it := e.Items[itemID]
	if it == nil {
		return nil, fmt.Errorf("exec: unknown data item %q", itemID)
	}
	prod := g.Lookup(it.Producer)
	reach := make(map[string]bool)
	for _, n := range g.ReachableFrom(prod) {
		reach[g.Name(n)] = true
	}
	var out []string
	for id, item := range e.Items {
		if reach[item.Producer] {
			out = append(out, id)
		}
	}
	sortItemIDs(out)
	return out, nil
}

// induced builds a new Execution restricted to the given node set.
// extraItems are retained even if they appear on no retained edge.
func induced(e *Execution, keep map[string]bool, id string, extraItems map[string]bool) *Execution {
	sub := &Execution{
		ID:     id,
		SpecID: e.SpecID,
		Items:  make(map[string]*DataItem),
	}
	for _, n := range e.Nodes {
		if keep[n.ID] {
			cp := *n
			sub.Nodes = append(sub.Nodes, &cp)
		}
	}
	for _, ed := range e.Edges {
		if keep[ed.From] && keep[ed.To] {
			sub.Edges = append(sub.Edges, Edge{From: ed.From, To: ed.To, Items: append([]string(nil), ed.Items...)})
			for _, itID := range ed.Items {
				if it := e.Items[itID]; it != nil {
					cp := *it
					sub.Items[itID] = &cp
				}
			}
		}
	}
	for itID := range extraItems {
		if it := e.Items[itID]; it != nil && keep[it.Producer] {
			cp := *it
			sub.Items[itID] = &cp
		}
	}
	return sub
}
