// Package exec models workflow executions and their provenance graphs
// (Section 2 of the CIDR 2011 paper): executions mirror the workflow
// graph, associate a unique process id with each module execution,
// represent composite module executions by begin/end node pairs, and
// annotate every edge with the data items that flow across it. Each
// data item is produced by exactly one module execution and has a
// unique id.
package exec

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"provpriv/internal/graph"
)

// Value is the payload of a data item. Values are opaque strings; module
// privacy reasons about the relation between input and output values,
// never their semantics.
type Value string

// NodeKind classifies execution-graph nodes.
type NodeKind int

const (
	// SourceNode is the distinguished start node (I).
	SourceNode NodeKind = iota
	// SinkNode is the distinguished end node (O).
	SinkNode
	// AtomicNode is the execution of an atomic module.
	AtomicNode
	// BeginNode marks the activation of a composite module execution.
	BeginNode
	// EndNode marks the completion of a composite module execution.
	EndNode
)

func (k NodeKind) String() string {
	switch k {
	case SourceNode:
		return "source"
	case SinkNode:
		return "sink"
	case AtomicNode:
		return "atomic"
	case BeginNode:
		return "begin"
	case EndNode:
		return "end"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Frame records one enclosing composite-module execution of a node:
// the composite's process id, its module id, and the subworkflow it
// expanded to. Frames are ordered outermost-first and drive execution
// views (collapsing composite executions not in a prefix).
type Frame struct {
	Proc   string `json:"proc"`
	Module string `json:"module"`
	Sub    string `json:"sub"`
}

// Node is a node of an execution graph, e.g. "S1:M1-begin" or "S2:M3".
type Node struct {
	ID     string   `json:"id"`
	Module string   `json:"module"` // module id in the spec ("" for I/O)
	Proc   string   `json:"proc"`   // process id ("" for I/O)
	Kind   NodeKind `json:"kind"`
	Frames []Frame  `json:"frames,omitempty"`
}

// DataItem is a single datum flowing through an execution. Producer is
// the id of the execution node that created it. Redacted items have had
// their Value masked by a privacy mechanism; the item's existence and
// attribute remain visible but not its payload.
type DataItem struct {
	ID       string `json:"id"`   // "d0", "d1", ...
	Attr     string `json:"attr"` // attribute name from the spec
	Value    Value  `json:"value"`
	Producer string `json:"producer"`
	Redacted bool   `json:"redacted,omitempty"`
}

// Edge is a dataflow edge of an execution graph annotated with the ids
// of the data items that flow across it.
type Edge struct {
	From  string   `json:"from"`
	To    string   `json:"to"`
	Items []string `json:"items"`
}

// Execution is a provenance graph: one run of a workflow specification.
//
// An Execution holds no hidden mutable state: every method that does not
// obviously write to it is safe for concurrent readers. The repository
// relies on this to share a shape's representative and the view plans
// collapsed from it among arbitrarily many concurrent requests (see
// internal/repo) — do not reintroduce lazily memoized fields here without
// synchronization.
type Execution struct {
	ID     string               `json:"id"`
	SpecID string               `json:"spec"`
	Nodes  []*Node              `json:"nodes"`
	Edges  []Edge               `json:"edges"`
	Items  map[string]*DataItem `json:"items"`
}

// Node returns the node with the given id, or nil. The scan is linear:
// no read path resolves nodes by id in a loop, and memoizing the index
// would make concurrent readers of a shared execution race (it used to).
//
//provlint:ignore unserved test support: exec, query and repo tests look nodes up by id (exec_test.go, query_test.go, warm_query_test.go)
func (e *Execution) Node(id string) *Node {
	for _, n := range e.Nodes {
		if n.ID == id {
			return n
		}
	}
	return nil
}

// NodeIDs returns all node ids in sorted order.
//
//provlint:ignore unserved test support: root, exec and repo tests compare node sets (integration_test.go, view_test.go, materialize_test.go)
func (e *Execution) NodeIDs() []string {
	ids := make([]string, len(e.Nodes))
	for i, n := range e.Nodes {
		ids[i] = n.ID
	}
	sort.Strings(ids)
	return ids
}

// ItemIDs returns all data item ids in sorted (numeric-aware) order.
func (e *Execution) ItemIDs() []string {
	ids := make([]string, 0, len(e.Items))
	for id := range e.Items {
		ids = append(ids, id)
	}
	sortItemIDs(ids)
	return ids
}

func sortItemIDs(ids []string) { slices.SortFunc(ids, compareItemIDs) }

// compareItemIDs is the order of ItemIDs: "d"-prefixed ids by length
// first, so d2 comes before d10, and otherwise bytewise.
func compareItemIDs(a, b string) int {
	if len(a) != len(b) && strings.HasPrefix(a, "d") && strings.HasPrefix(b, "d") {
		return cmp.Compare(len(a), len(b))
	}
	return cmp.Compare(a, b)
}

// Graph returns the execution as a directed graph over node ids.
func (e *Execution) Graph() *graph.Graph {
	g := graph.NewSized(len(e.Nodes), len(e.Edges))
	for _, n := range e.Nodes {
		g.AddNode(n.ID)
	}
	es := make([]graph.Edge, 0, len(e.Edges))
	for _, ed := range e.Edges {
		es = append(es, graph.Edge{U: g.Lookup(ed.From), V: g.Lookup(ed.To)})
	}
	g.AddEdges(es)
	return g
}

// ExecutionsOf returns the node executing the given spec module id
// (the begin node for composites), or nil.
func (e *Execution) ExecutionsOf(moduleID string) []*Node {
	var out []*Node
	for _, n := range e.Nodes {
		if n.Module == moduleID && (n.Kind == AtomicNode || n.Kind == BeginNode) {
			out = append(out, n)
		}
	}
	return out
}

// Validate checks internal consistency: no nil node or item, unique node
// ids, edges referencing known nodes and items, every item produced by a
// known node, and acyclicity.
func (e *Execution) Validate() error {
	g, err := e.checkedGraph()
	if err != nil {
		return err
	}
	if !g.IsAcyclic() {
		return errCycle
	}
	return nil
}

var errCycle = errors.New("exec: execution graph has a cycle")

// checkedGraph runs every check of Validate except acyclicity and
// returns the execution's graph, so a caller that needs the graph anyway
// builds it once and settles acyclicity with the topological sort it was
// going to run (Validate, CollapseIn).
func (e *Execution) checkedGraph() (*graph.Graph, error) {
	g := graph.NewSized(len(e.Nodes), len(e.Edges))
	for _, n := range e.Nodes {
		if n == nil {
			return nil, errors.New("exec: a node is nil")
		}
		if g.Lookup(n.ID) != graph.Invalid {
			return nil, fmt.Errorf("exec: duplicate node id %q", n.ID)
		}
		g.AddNode(n.ID)
	}
	es := make([]graph.Edge, 0, len(e.Edges))
	for _, ed := range e.Edges {
		u, v := g.Lookup(ed.From), g.Lookup(ed.To)
		if u == graph.Invalid || v == graph.Invalid {
			return nil, fmt.Errorf("exec: edge %s->%s references unknown node", ed.From, ed.To)
		}
		if len(ed.Items) == 0 {
			return nil, fmt.Errorf("exec: edge %s->%s carries no items", ed.From, ed.To)
		}
		for _, it := range ed.Items {
			if e.Items[it] == nil {
				return nil, fmt.Errorf("exec: edge %s->%s carries unknown item %q", ed.From, ed.To, it)
			}
		}
		es = append(es, graph.Edge{U: u, V: v})
	}
	g.AddEdges(es)
	for id, it := range e.Items {
		if it == nil {
			return nil, fmt.Errorf("exec: item %q is nil", id)
		}
		if it.ID != id {
			return nil, fmt.Errorf("exec: item key %q has id %q", id, it.ID)
		}
		if g.Lookup(it.Producer) == graph.Invalid {
			return nil, fmt.Errorf("exec: item %s produced by unknown node %q", id, it.Producer)
		}
	}
	return g, nil
}

// ASCII renders the execution as text lines "from -> to [items]" in
// deterministic order (regenerates Fig. 4).
func (e *Execution) ASCII() string {
	var b strings.Builder
	fmt.Fprintf(&b, "execution %s of %s\n", e.ID, e.SpecID)
	edges := append([]Edge(nil), e.Edges...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	for _, ed := range edges {
		items := append([]string(nil), ed.Items...)
		sortItemIDs(items)
		fmt.Fprintf(&b, "  %s -> %s  [%s]\n", ed.From, ed.To, strings.Join(items, ","))
	}
	return b.String()
}

// DOT renders the execution in Graphviz format.
func (e *Execution) DOT() string {
	g := e.Graph()
	kind := make(map[string]NodeKind, len(e.Nodes))
	for _, n := range e.Nodes {
		kind[n.ID] = n.Kind
	}
	itemsOf := make(map[[2]string]string, len(e.Edges))
	for _, ed := range e.Edges {
		items := append([]string(nil), ed.Items...)
		sortItemIDs(items)
		itemsOf[[2]string{ed.From, ed.To}] = strings.Join(items, ",")
	}
	return g.DOT(graph.DotOptions{
		Name:    e.ID,
		Rankdir: "TB",
		NodeAttrs: func(n graph.NodeID) string {
			id := g.Name(n)
			switch kind[id] {
			case SourceNode, SinkNode:
				return "shape=circle"
			case BeginNode, EndNode:
				return "shape=box,style=rounded"
			default:
				return "shape=box"
			}
		},
		EdgeAttrs: func(ed graph.Edge) string {
			return fmt.Sprintf("label=%q", itemsOf[[2]string{g.Name(ed.U), g.Name(ed.V)}])
		},
	})
}
