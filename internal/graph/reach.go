package graph

import "sort"

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
		rows[i] = Bitset{words: words[i*wpr : (i+1)*wpr : (i+1)*wpr], n: n}
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

// From returns the bitset of nodes reachable from u. The caller must not
// modify it.
func (c *Closure) From(u NodeID) *Bitset { return c.reach[u] }

// Pairs returns the number of ordered reachable pairs (u,v), u != v.
func (c *Closure) Pairs() int {
	total := 0
	for _, b := range c.reach {
		total += b.Count() - 1 // exclude self
	}
	return total
}

// IntervalIndex is a lightweight DAG reachability index based on DFS
// pre/post intervals over a spanning forest, with a pruned-DFS fallback
// for non-tree reachability. For tree-like workflow graphs the interval
// test answers most queries in O(1); the fallback never visits a node
// whose interval already excludes the target's subtree.
//
// It trades construction cost (O(n+m)) against query cost (worst case
// O(n+m), typically far less), versus Closure's O(n*m/64) build and O(1)
// queries. Benchmark B2/B3 in EXPERIMENTS.md compares the two.
type IntervalIndex struct {
	g         *Graph
	pre, post []int
	topoOf    []int // topological rank of each node
}

// NewIntervalIndex builds the index for a DAG g.
func NewIntervalIndex(g *Graph) (*IntervalIndex, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	n := g.N()
	ix := &IntervalIndex{
		g:      g,
		pre:    make([]int, n),
		post:   make([]int, n),
		topoOf: make([]int, n),
	}
	for rank, u := range order {
		ix.topoOf[u] = rank
	}
	// DFS over a spanning forest rooted at sources, in topo order.
	visited := make([]bool, n)
	clock := 0
	var dfs func(u NodeID)
	dfs = func(u NodeID) {
		visited[u] = true
		ix.pre[u] = clock
		clock++
		// Deterministic order.
		succ := append([]NodeID(nil), g.Out(u)...)
		sort.Slice(succ, func(i, j int) bool { return succ[i] < succ[j] })
		for _, v := range succ {
			if !visited[v] {
				dfs(v)
			}
		}
		ix.post[u] = clock
		clock++
	}
	for _, u := range order {
		if !visited[u] {
			dfs(u)
		}
	}
	return ix, nil
}

// Reach reports whether v is reachable from u.
func (ix *IntervalIndex) Reach(u, v NodeID) bool {
	if u == v {
		return true
	}
	// Topological pruning: a node can only reach topologically later ones.
	if ix.topoOf[u] > ix.topoOf[v] {
		return false
	}
	// Tree ancestor test on the spanning forest.
	if ix.pre[u] <= ix.pre[v] && ix.post[v] <= ix.post[u] {
		return true
	}
	// Pruned DFS fallback.
	seen := make([]bool, ix.g.N())
	return ix.dfsReach(u, v, seen)
}

func (ix *IntervalIndex) dfsReach(u, v NodeID, seen []bool) bool {
	seen[u] = true
	for _, w := range ix.g.Out(u) {
		if w == v {
			return true
		}
		if seen[w] || ix.topoOf[w] > ix.topoOf[v] {
			continue
		}
		if ix.pre[w] <= ix.pre[v] && ix.post[v] <= ix.post[w] {
			return true
		}
		if ix.dfsReach(w, v, seen) {
			return true
		}
	}
	return false
}
