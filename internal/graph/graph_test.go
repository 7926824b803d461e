package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func mustTopo(t *testing.T, g *Graph) []NodeID {
	t.Helper()
	order, err := g.TopoSort()
	if err != nil {
		t.Fatalf("TopoSort: %v", err)
	}
	return order
}

// diamond builds s -> a,b -> t.
func diamond() (*Graph, NodeID, NodeID, NodeID, NodeID) {
	g := New()
	s := g.AddNode("s")
	a := g.AddNode("a")
	b := g.AddNode("b")
	t := g.AddNode("t")
	g.AddEdge(s, a)
	g.AddEdge(s, b)
	g.AddEdge(a, t)
	g.AddEdge(b, t)
	return g, s, a, b, t
}

func TestAddNodeIdempotent(t *testing.T) {
	g := New()
	a := g.AddNode("x")
	b := g.AddNode("x")
	if a != b {
		t.Fatalf("AddNode not idempotent: %d vs %d", a, b)
	}
	if g.N() != 1 {
		t.Fatalf("N = %d, want 1", g.N())
	}
}

func TestLookup(t *testing.T) {
	g := New()
	a := g.AddNode("x")
	if got := g.Lookup("x"); got != a {
		t.Fatalf("Lookup(x) = %d, want %d", got, a)
	}
	if got := g.Lookup("missing"); got != Invalid {
		t.Fatalf("Lookup(missing) = %d, want Invalid", got)
	}
}

func TestAddEdgeCollapsesParallel(t *testing.T) {
	g := New()
	a, b := g.AddNode("a"), g.AddNode("b")
	g.AddEdge(a, b)
	g.AddEdge(a, b)
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if len(g.Out(a)) != 1 || len(g.in[b]) != 1 {
		t.Fatalf("adjacency duplicated")
	}
}

func TestTopoSortOrder(t *testing.T) {
	g, s, a, b, tt := diamond()
	order := mustTopo(t, g)
	pos := make(map[NodeID]int)
	for i, u := range order {
		pos[u] = i
	}
	for _, e := range []Edge{{s, a}, {s, b}, {a, tt}, {b, tt}} {
		if pos[e.U] >= pos[e.V] {
			t.Fatalf("topo order violates edge %v", e)
		}
	}
}

func TestTopoSortCycle(t *testing.T) {
	g := New()
	a, b := g.AddNode("a"), g.AddNode("b")
	g.AddEdge(a, b)
	g.AddEdge(b, a)
	if _, err := g.TopoSort(); err != ErrCycle {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
	if g.IsAcyclic() {
		t.Fatal("IsAcyclic = true on cyclic graph")
	}
}

// Toposort property via testing/quick: every edge respects the order.
func TestTopoSortQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 24, 0.15)
		order, err := g.TopoSort()
		if err != nil {
			return false
		}
		pos := make(map[NodeID]int, len(order))
		for i, u := range order {
			pos[u] = i
		}
		for _, e := range g.Edges() {
			if pos[e.U] >= pos[e.V] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReachable(t *testing.T) {
	g, s, a, b, tt := diamond()
	cases := []struct {
		u, v NodeID
		want bool
	}{
		{s, tt, true}, {s, a, true}, {a, b, false}, {tt, s, false}, {a, a, true},
	}
	for _, c := range cases {
		if got := g.Reachable(c.u, c.v); got != c.want {
			t.Errorf("Reachable(%s,%s) = %v, want %v", g.Name(c.u), g.Name(c.v), got, c.want)
		}
	}
	_ = b
}

func TestReachableFromAndTo(t *testing.T) {
	g, s, a, b, tt := diamond()
	from := g.ReachableFrom(s)
	if len(from) != 4 {
		t.Fatalf("ReachableFrom(s) = %v, want 4 nodes", from)
	}
	to := g.ReachingTo(tt)
	if len(to) != 4 {
		t.Fatalf("ReachingTo(t) = %v, want 4 nodes", to)
	}
	fromA := g.ReachableFrom(a)
	if len(fromA) != 2 { // a, t
		t.Fatalf("ReachableFrom(a) = %v, want [a t]", fromA)
	}
	_ = b
}

func TestLongestPathLen(t *testing.T) {
	g, _, _, _, _ := diamond()
	if got := g.LongestPathLen(); got != 2 {
		t.Fatalf("LongestPathLen = %d, want 2", got)
	}
	c := New()
	a, b := c.AddNode("a"), c.AddNode("b")
	c.AddEdge(a, b)
	c.AddEdge(b, a)
	if got := c.LongestPathLen(); got != -1 {
		t.Fatalf("LongestPathLen on cycle = %d, want -1", got)
	}
}

func randomDAG(rng *rand.Rand, n int, p float64) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode(nodeName(i))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(NodeID(i), NodeID(j))
			}
		}
	}
	return g
}

func nodeName(i int) string {
	return "n" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func TestClosureMatchesDFS(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		g := randomDAG(rng, 30, 0.1)
		cl, err := NewClosure(g)
		if err != nil {
			t.Fatalf("NewClosure: %v", err)
		}
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				want := g.Reachable(NodeID(u), NodeID(v))
				if got := cl.Reach(NodeID(u), NodeID(v)); got != want {
					t.Fatalf("trial %d: closure(%d,%d)=%v dfs=%v", trial, u, v, got, want)
				}
			}
		}
	}
}

func TestClosureCyclic(t *testing.T) {
	g := New()
	a, b := g.AddNode("a"), g.AddNode("b")
	g.AddEdge(a, b)
	g.AddEdge(b, a)
	if _, err := NewClosure(g); err == nil {
		t.Fatal("NewClosure accepted cyclic graph")
	}
}

func TestClosurePairs(t *testing.T) {
	g, _, _, _, _ := diamond()
	cl, _ := NewClosure(g)
	// s->a, s->b, s->t, a->t, b->t = 5 ordered pairs.
	got := 0
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if u != v && cl.Reach(NodeID(u), NodeID(v)) {
				got++
			}
		}
	}
	if got != 5 {
		t.Fatalf("Pairs = %d, want 5", got)
	}
}

// topoSortSortedFrontier is TopoSort as it was before the frontier became
// a heap — re-sort the ready list on every pop — kept as the reference
// for the order TopoSort promises (smallest ready id first).
func topoSortSortedFrontier(g *Graph) ([]NodeID, error) {
	indeg := make([]int, g.N())
	var frontier []NodeID
	for u := 0; u < g.N(); u++ {
		if indeg[u] = len(g.in[u]); indeg[u] == 0 {
			frontier = append(frontier, NodeID(u))
		}
	}
	order := make([]NodeID, 0, g.N())
	for len(frontier) > 0 {
		sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
		u := frontier[0]
		frontier = frontier[1:]
		order = append(order, u)
		for _, v := range g.out[u] {
			if indeg[v]--; indeg[v] == 0 {
				frontier = append(frontier, v)
			}
		}
	}
	if len(order) != g.N() {
		return nil, ErrCycle
	}
	return order, nil
}

// TestTopoSortOrderUnchanged: on random DAGs whose edges run against the
// id order as often as with it — and with an occasional back edge, so
// cyclic inputs are covered — TopoSort returns exactly what the
// sorted-frontier implementation returned.
func TestTopoSortOrderUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		rank := rng.Perm(n) // edges go from lower to higher rank, ids are arbitrary
		g := New()
		for i := 0; i < n; i++ {
			g.AddNode(string(rune('a'+i%26)) + string(rune('0'+i/26)))
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if rank[u] < rank[v] && rng.Float64() < 0.08 {
					g.AddEdge(NodeID(u), NodeID(v))
				}
			}
		}
		if trial%10 == 9 && n > 1 {
			g.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		want, wantErr := topoSortSortedFrontier(g)
		got, gotErr := g.TopoSort()
		if gotErr != wantErr || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d): TopoSort = %v, %v; sorted-frontier reference = %v, %v", trial, n, got, gotErr, want, wantErr)
		}
	}
}

// TestAddEdgesMatchesAddEdge: the bulk insert is a loop of AddEdge calls
// as far as any reader can tell — same adjacency order, duplicates
// collapsed, earlier edges kept — whatever it does about allocation.
func TestAddEdgesMatchesAddEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(30)
		bulk, loop := NewSized(n, 0), New()
		for i := 0; i < n; i++ {
			name := string(rune('a'+i%26)) + string(rune('0'+i/26))
			bulk.AddNode(name)
			loop.AddNode(name)
		}
		draw := func(m int) []Edge {
			es := make([]Edge, m)
			for i := range es {
				es[i] = Edge{NodeID(rng.Intn(n)), NodeID(rng.Intn(n))}
			}
			return es
		}
		for _, e := range draw(rng.Intn(n)) { // some nodes already have lists
			bulk.AddEdge(e.U, e.V)
			loop.AddEdge(e.U, e.V)
		}
		for round := 0; round < 2; round++ {
			es := draw(rng.Intn(4 * n))
			bulk.AddEdges(es)
			for _, e := range es {
				loop.AddEdge(e.U, e.V)
			}
		}
		if bulk.M() != loop.M() {
			t.Fatalf("trial %d: M = %d, AddEdge loop gives %d", trial, bulk.M(), loop.M())
		}
		for u := NodeID(0); int(u) < n; u++ {
			if !slices.Equal(bulk.Out(u), loop.Out(u)) || !slices.Equal(bulk.in[u], loop.in[u]) {
				t.Fatalf("trial %d node %d: out %v in %v, AddEdge loop gives out %v in %v",
					trial, u, bulk.Out(u), bulk.in[u], loop.Out(u), loop.in[u])
			}
			for _, v := range loop.Out(u) {
				if !bulk.HasEdge(u, v) {
					t.Fatalf("trial %d: HasEdge(%d,%d) = false", trial, u, v)
				}
			}
		}
	}
}
