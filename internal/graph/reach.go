package graph

// Closure is a precomputed all-pairs reachability index built from the
// bitset transitive closure of a DAG. Queries are O(1); construction is
// O(n*m/64). Reachability is reflexive: Reach(u,u) is always true.
//
// All rows live in one arena word slice, so building a closure costs a
// constant number of allocations regardless of graph size.
type Closure struct {
	reach []*Bitset
}

// NewClosure computes the transitive closure of g, which must be a DAG.
// Returns ErrCycle otherwise.
func NewClosure(g *Graph) (*Closure, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	n := g.N()
	wpr := (n + 63) / 64 // words per row
	words := make([]uint64, n*wpr)
	rows := make([]Bitset, n)
	c := &Closure{reach: make([]*Bitset, n)}
	for i := 0; i < n; i++ {
		rows[i] = Bitset{words: words[i*wpr : (i+1)*wpr : (i+1)*wpr]}
		c.reach[i] = &rows[i]
	}
	// Process in reverse topological order so successors are done first.
	for i := n - 1; i >= 0; i-- {
		u := order[i]
		b := c.reach[u]
		b.Set(int(u))
		for _, v := range g.Out(u) {
			b.Or(c.reach[v])
		}
	}
	return c, nil
}

// Reach reports whether v is reachable from u (reflexively).
func (c *Closure) Reach(u, v NodeID) bool { return c.reach[u].Has(int(v)) }
