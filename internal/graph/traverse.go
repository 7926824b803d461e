package graph

import (
	"errors"
	"sort"
)

// ErrCycle is returned by TopoSort when the graph contains a directed
// cycle.
var ErrCycle = errors.New("graph: not a DAG (cycle detected)")

// TopoSort returns the nodes in a topological order (Kahn's algorithm,
// smallest-id-first for determinism). It returns ErrCycle if the graph
// has a directed cycle.
func (g *Graph) TopoSort() ([]NodeID, error) {
	n := g.N()
	indeg := make([]int, n)
	// The frontier is a binary min-heap over one n-sized buffer (every
	// node enters it exactly once), so popping the smallest ready id
	// allocates nothing.
	frontier := make([]NodeID, 0, n)
	for u := 0; u < n; u++ {
		indeg[u] = len(g.in[u])
		if indeg[u] == 0 {
			frontier = append(frontier, NodeID(u)) // ascending: already a heap
		}
	}
	order := make([]NodeID, 0, n)
	for len(frontier) > 0 {
		u := frontier[0]
		last := len(frontier) - 1
		frontier[0] = frontier[last]
		frontier = frontier[:last]
		siftDown(frontier, 0)
		order = append(order, u)
		for _, v := range g.out[u] {
			indeg[v]--
			if indeg[v] == 0 {
				frontier = append(frontier, v)
				siftUp(frontier, len(frontier)-1)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

func siftUp(h []NodeID, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func siftDown(h []NodeID, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// IsAcyclic reports whether the graph is a DAG.
func (g *Graph) IsAcyclic() bool {
	_, err := g.TopoSort()
	return err == nil
}

// Reachable reports whether v is reachable from u by a directed path
// (u is reachable from itself). It runs a DFS and is O(n+m).
//
//provlint:ignore unserved reference: exec, query, repo, root structural_test.go and graph_test.go's closure check compare against it
func (g *Graph) Reachable(u, v NodeID) bool {
	if u == v {
		return true
	}
	seen := make([]bool, g.N())
	stack := []NodeID{u}
	seen[u] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, y := range g.out[x] {
			if y == v {
				return true
			}
			if !seen[y] {
				seen[y] = true
				stack = append(stack, y)
			}
		}
	}
	return false
}

// ReachableFrom returns the set of nodes reachable from u, including u.
func (g *Graph) ReachableFrom(u NodeID) []NodeID {
	seen := make([]bool, g.N())
	stack := []NodeID{u}
	seen[u] = true
	var out []NodeID
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, x)
		for _, y := range g.out[x] {
			if !seen[y] {
				seen[y] = true
				stack = append(stack, y)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ReachingTo returns the set of nodes from which u is reachable,
// including u (i.e. reverse reachability).
func (g *Graph) ReachingTo(u NodeID) []NodeID {
	seen := make([]bool, g.N())
	stack := []NodeID{u}
	seen[u] = true
	var out []NodeID
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, x)
		for _, y := range g.in[x] {
			if !seen[y] {
				seen[y] = true
				stack = append(stack, y)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LongestPathLen returns the number of edges on the longest directed
// path in a DAG, or -1 if the graph has a cycle.
func (g *Graph) LongestPathLen() int {
	order, err := g.TopoSort()
	if err != nil {
		return -1
	}
	dist := make([]int, g.N())
	best := 0
	for _, u := range order {
		for _, v := range g.out[u] {
			if dist[u]+1 > dist[v] {
				dist[v] = dist[u] + 1
				if dist[v] > best {
					best = dist[v]
				}
			}
		}
	}
	return best
}
