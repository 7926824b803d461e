package graph

import (
	"fmt"
	"sort"
	"strings"
)

// DotOptions controls DOT rendering.
type DotOptions struct {
	Name      string              // digraph name; default "G"
	NodeAttrs func(NodeID) string // extra attrs per node, e.g. `shape=box`
	EdgeAttrs func(Edge) string   // extra attrs per edge
	Rankdir   string              // e.g. "TB", "LR"
}

// DOT renders the graph in Graphviz DOT format with deterministic
// ordering, suitable for regenerating the paper's figures.
func (g *Graph) DOT(opt DotOptions) string {
	name := opt.Name
	if name == "" {
		name = "G"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	if opt.Rankdir != "" {
		fmt.Fprintf(&b, "  rankdir=%s;\n", opt.Rankdir)
	}
	ids := make([]int, g.N())
	for i := range ids {
		ids[i] = i
	}
	sort.Ints(ids)
	for _, i := range ids {
		attrs := ""
		if opt.NodeAttrs != nil {
			attrs = opt.NodeAttrs(NodeID(i))
		}
		if attrs != "" {
			fmt.Fprintf(&b, "  %q [%s];\n", g.names[i], attrs)
		} else {
			fmt.Fprintf(&b, "  %q;\n", g.names[i])
		}
	}
	for _, e := range g.Edges() {
		attrs := ""
		if opt.EdgeAttrs != nil {
			attrs = opt.EdgeAttrs(e)
		}
		if attrs != "" {
			fmt.Fprintf(&b, "  %q -> %q [%s];\n", g.names[e.U], g.names[e.V], attrs)
		} else {
			fmt.Fprintf(&b, "  %q -> %q;\n", g.names[e.U], g.names[e.V])
		}
	}
	b.WriteString("}\n")
	return b.String()
}
