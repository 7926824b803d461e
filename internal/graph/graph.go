// Package graph provides the directed-graph substrate used by the
// workflow, provenance and privacy layers: adjacency storage, traversal,
// topological ordering, reachability indexes and DOT rendering.
//
// Graphs are node-centric: nodes are created with string names and
// addressed by dense integer NodeIDs, which keeps the bitset closures
// allocation-friendly.
package graph

import (
	"fmt"
	"sort"
)

// NodeID identifies a node within a single Graph. IDs are dense: the
// first node added gets 0, the next 1, and so on. IDs are never reused.
type NodeID int

// Invalid is returned by lookups that find no node.
const Invalid NodeID = -1

// Graph is a mutable directed graph with named nodes. The zero value is
// an empty graph ready to use. Graph is not safe for concurrent mutation;
// concurrent reads are safe once mutation stops.
type Graph struct {
	names  []string
	index  map[string]NodeID
	out    [][]NodeID
	in     [][]NodeID
	edgeN  int
	hasSet map[edgeKey]struct{}
}

type edgeKey struct{ u, v NodeID }

// New returns an empty graph. Equivalent to new(Graph) but reads better
// at call sites.
func New() *Graph { return &Graph{} }

// NewSized returns an empty graph with room for nodes nodes and edges
// edges, for callers that know both counts up front (a graph derived
// from an execution or a view): the node tables and both lookup maps are
// allocated once instead of grown per AddNode/AddEdge. The sizes are
// hints, not limits.
func NewSized(nodes, edges int) *Graph {
	return &Graph{
		names:  make([]string, 0, nodes),
		index:  make(map[string]NodeID, nodes),
		out:    make([][]NodeID, 0, nodes),
		in:     make([][]NodeID, 0, nodes),
		hasSet: make(map[edgeKey]struct{}, edges),
	}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.names) }

// M returns the number of edges.
func (g *Graph) M() int { return g.edgeN }

// AddNode adds a node with the given name and returns its id. If a node
// with the name already exists, its existing id is returned.
func (g *Graph) AddNode(name string) NodeID {
	if g.index == nil {
		g.index = make(map[string]NodeID)
		g.hasSet = make(map[edgeKey]struct{})
	}
	if id, ok := g.index[name]; ok {
		return id
	}
	id := NodeID(len(g.names))
	g.names = append(g.names, name)
	g.index[name] = id
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id
}

// Lookup returns the id of the node with the given name, or Invalid.
func (g *Graph) Lookup(name string) NodeID {
	if id, ok := g.index[name]; ok {
		return id
	}
	return Invalid
}

// Name returns the name of node u. It panics if u is out of range.
func (g *Graph) Name(u NodeID) string { return g.names[u] }

// AddEdge adds the directed edge u->v. Parallel edges are collapsed:
// adding an existing edge is a no-op. It panics if u or v is out of
// range.
func (g *Graph) AddEdge(u, v NodeID) {
	g.check(u)
	g.check(v)
	k := edgeKey{u, v}
	if _, ok := g.hasSet[k]; ok {
		return
	}
	if g.hasSet == nil {
		g.hasSet = make(map[edgeKey]struct{})
	}
	g.hasSet[k] = struct{}{}
	g.out[u] = append(g.out[u], v)
	g.in[v] = append(g.in[v], u)
	g.edgeN++
}

// AddEdges adds every edge of es, with AddEdge's semantics (parallel
// edges collapse, out-of-range ids panic). Unlike a loop of AddEdge
// calls it sizes the adjacency lists first: one counting pass, then
// every list that is still empty is carved, at its exact length, out of
// one arena — so a graph built in one go costs a constant number of
// allocations instead of a growth sequence per node.
func (g *Graph) AddEdges(es []Edge) {
	n := len(g.names)
	deg := make([]int, 2*n) // out-degrees, then in-degrees
	for _, e := range es {
		g.check(e.U)
		g.check(e.V)
		deg[e.U]++
		deg[n+int(e.V)]++
	}
	arena := make([]NodeID, 2*len(es))
	carve := func(list *[]NodeID, d int) {
		if *list == nil {
			*list, arena = arena[:0:d], arena[d:]
		}
	}
	for u := 0; u < n; u++ {
		carve(&g.out[u], deg[u])
		carve(&g.in[u], deg[n+u])
	}
	for _, e := range es {
		g.AddEdge(e.U, e.V)
	}
}

// HasEdge reports whether the edge u->v exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.hasSet[edgeKey{u, v}]
	return ok
}

// Out returns the successors of u. The returned slice must not be
// modified.
func (g *Graph) Out(u NodeID) []NodeID { return g.out[u] }

// Edge is a directed edge between two nodes.
type Edge struct{ U, V NodeID }

// Edges returns all edges in deterministic (source, target) order.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.edgeN)
	for u := range g.out {
		for _, v := range g.out[u] {
			es = append(es, Edge{NodeID(u), v})
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	return es
}

func (g *Graph) check(u NodeID) {
	if u < 0 || int(u) >= len(g.names) {
		panic(fmt.Sprintf("graph: node id %d out of range [0,%d)", u, len(g.names)))
	}
}

// String returns a compact human-readable description, mainly for tests.
func (g *Graph) String() string {
	s := fmt.Sprintf("graph(n=%d,m=%d)", g.N(), g.M())
	return s
}
