package exec

import (
	"fmt"
	"sort"
)

// Diff compares two executions of the same specification — the
// provenance debugging scenario from the paper's introduction ("finding
// erroneous or suspect data, a user may then ask provenance queries to
// … understand how the process failed that led to creating the data").
// Comparing a good and a bad run localizes where their dataflow
// diverges.
type Diff struct {
	// OnlyInA / OnlyInB: node ids present in one execution only
	// (different runs may take different process numbering, so nodes
	// are matched by id).
	OnlyInA, OnlyInB []string
	// ValueDiffs: attributes whose produced values differ between the
	// runs (matched by attribute name, first producer occurrence).
	ValueDiffs []ValueDiff
	// FirstDivergence is the earliest (topologically) differing
	// attribute, "" when none — the natural root-cause candidate.
	FirstDivergence string
}

// ValueDiff records one attribute whose value changed between runs.
type ValueDiff struct {
	Attr   string
	ValueA Value
	ValueB Value
	NodeA  string // producer in A
	NodeB  string // producer in B
}

// CompareExecutions diffs two executions of the same spec. It returns
// an error when the executions belong to different specs.
func CompareExecutions(a, b *Execution) (*Diff, error) {
	if a.SpecID != b.SpecID {
		return nil, fmt.Errorf("exec: diff across specs %q and %q", a.SpecID, b.SpecID)
	}
	d := &Diff{}
	nodesA := make(map[string]bool, len(a.Nodes))
	for _, n := range a.Nodes {
		nodesA[n.ID] = true
	}
	nodesB := make(map[string]bool, len(b.Nodes))
	for _, n := range b.Nodes {
		nodesB[n.ID] = true
	}
	for id := range nodesA {
		if !nodesB[id] {
			d.OnlyInA = append(d.OnlyInA, id)
		}
	}
	for id := range nodesB {
		if !nodesA[id] {
			d.OnlyInB = append(d.OnlyInB, id)
		}
	}
	sort.Strings(d.OnlyInA)
	sort.Strings(d.OnlyInB)

	// First value per attribute, in each execution.
	attrVal := func(e *Execution) map[string]*DataItem {
		m := make(map[string]*DataItem)
		for _, id := range e.ItemIDs() {
			it := e.Items[id]
			if _, seen := m[it.Attr]; !seen {
				m[it.Attr] = it
			}
		}
		return m
	}
	va, vb := attrVal(a), attrVal(b)
	var attrs []string
	for attr := range va {
		if _, ok := vb[attr]; ok {
			attrs = append(attrs, attr)
		}
	}
	sort.Strings(attrs)
	for _, attr := range attrs {
		ia, ib := va[attr], vb[attr]
		if ia.Value != ib.Value {
			d.ValueDiffs = append(d.ValueDiffs, ValueDiff{
				Attr: attr, ValueA: ia.Value, ValueB: ib.Value,
				NodeA: ia.Producer, NodeB: ib.Producer,
			})
		}
	}

	// First divergence: the differing attribute whose producer in A is
	// topologically earliest.
	if len(d.ValueDiffs) > 0 {
		g := a.Graph()
		order, err := g.TopoSort()
		if err == nil {
			rank := make(map[string]int, len(order))
			for i, n := range order {
				rank[g.Name(n)] = i
			}
			best := -1
			for _, v := range d.ValueDiffs {
				if r, ok := rank[v.NodeA]; ok && (best < 0 || r < best) {
					best = r
					d.FirstDivergence = v.Attr
				}
			}
		}
	}
	return d, nil
}
