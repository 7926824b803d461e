package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMaxFlowSimple(t *testing.T) {
	f := NewFlowNetwork(4)
	f.AddEdge(0, 1, 3)
	f.AddEdge(0, 2, 2)
	f.AddEdge(1, 3, 2)
	f.AddEdge(2, 3, 3)
	if got := f.MaxFlow(0, 3); got != 4 {
		t.Fatalf("MaxFlow = %d, want 4", got)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	f := NewFlowNetwork(3)
	f.AddEdge(0, 1, 5)
	if got := f.MaxFlow(0, 2); got != 0 {
		t.Fatalf("MaxFlow = %d, want 0", got)
	}
}

func TestMinEdgeCutDiamond(t *testing.T) {
	g, s, _, _, tt := diamond()
	cut := MinEdgeCut(g, s, tt, nil)
	if len(cut) != 2 {
		t.Fatalf("cut size = %d (%v), want 2", len(cut), cut)
	}
	// Removing the cut must disconnect.
	h := g.Clone()
	for _, e := range cut {
		h.RemoveEdge(e.U, e.V)
	}
	if h.Reachable(s, tt) {
		t.Fatal("cut does not disconnect s from t")
	}
}

func TestMinEdgeCutAlreadyDisconnected(t *testing.T) {
	g := New()
	a, b := g.AddNode("a"), g.AddNode("b")
	if cut := MinEdgeCut(g, a, b, nil); cut != nil {
		t.Fatalf("cut = %v, want nil", cut)
	}
}

func TestMinEdgeCutWeighted(t *testing.T) {
	// s -> a -> t with a cheap bypass s -> t of weight 10:
	// s-a (w=1), a-t (w=5), s-t (w=10). Min cut must take s-a + s-t? No:
	// cutting {s->a?} doesn't cut s->t. All s-t paths: s-a-t and s-t.
	// Options: {s->t, s->a} cost 11, {s->t, a->t} cost 15. Expect former.
	g := New()
	s := g.AddNode("s")
	a := g.AddNode("a")
	tt := g.AddNode("t")
	g.AddEdge(s, a)
	g.AddEdge(a, tt)
	g.AddEdge(s, tt)
	w := func(e Edge) int64 {
		switch {
		case e.U == s && e.V == a:
			return 1
		case e.U == a && e.V == tt:
			return 5
		default:
			return 10
		}
	}
	cut := MinEdgeCut(g, s, tt, w)
	var total int64
	for _, e := range cut {
		total += w(e)
	}
	if total != 11 {
		t.Fatalf("cut weight = %d (%v), want 11", total, cut)
	}
}

func TestMinVertexCut(t *testing.T) {
	// s -> a -> t and s -> b -> t: vertex cut {a,b}.
	g, s, a, b, tt := diamond()
	cut, ok := MinVertexCut(g, s, tt, nil)
	if !ok {
		t.Fatal("MinVertexCut reported impossible")
	}
	if len(cut) != 2 {
		t.Fatalf("vertex cut = %v, want 2 nodes", cut)
	}
	seen := map[NodeID]bool{}
	for _, u := range cut {
		seen[u] = true
	}
	if !seen[a] || !seen[b] {
		t.Fatalf("vertex cut = %v, want {a,b}", cut)
	}
	_ = s
}

func TestMinVertexCutDirectEdge(t *testing.T) {
	g := New()
	s := g.AddNode("s")
	tt := g.AddNode("t")
	g.AddEdge(s, tt)
	if _, ok := MinVertexCut(g, s, tt, nil); ok {
		t.Fatal("vertex cut claimed possible despite direct edge")
	}
}

func TestMinVertexCutDisconnected(t *testing.T) {
	g := New()
	s := g.AddNode("s")
	tt := g.AddNode("t")
	cut, ok := MinVertexCut(g, s, tt, nil)
	if !ok || len(cut) != 0 {
		t.Fatalf("cut=%v ok=%v, want empty,true", cut, ok)
	}
}

// Property: for random DAGs, the min edge cut disconnects and has size
// equal to max-flow, which is at most min(outdeg(s), indeg(t)).
func TestMinEdgeCutProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		g := randomDAG(rng, 20, 0.15)
		s, tt := NodeID(0), NodeID(g.N()-1)
		if !g.Reachable(s, tt) {
			continue
		}
		cut := MinEdgeCut(g, s, tt, nil)
		if len(cut) == 0 {
			t.Fatalf("trial %d: empty cut for connected pair", trial)
		}
		h := g.Clone()
		for _, e := range cut {
			h.RemoveEdge(e.U, e.V)
		}
		if h.Reachable(s, tt) {
			t.Fatalf("trial %d: cut fails to disconnect", trial)
		}
		if len(cut) > len(g.Out(s)) && len(cut) > len(g.in[tt]) {
			t.Fatalf("trial %d: cut %d exceeds trivial bounds %d/%d",
				trial, len(cut), len(g.Out(s)), len(g.in[tt]))
		}
	}
}

// Property: removing a min vertex cut disconnects s from t.
func TestMinVertexCutProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 30; trial++ {
		g := randomDAG(rng, 18, 0.12)
		s, tt := NodeID(0), NodeID(g.N()-1)
		if !g.Reachable(s, tt) || g.HasEdge(s, tt) {
			continue
		}
		cut, ok := MinVertexCut(g, s, tt, nil)
		if !ok {
			t.Fatalf("trial %d: unexpectedly impossible", trial)
		}
		drop := map[NodeID]bool{}
		for _, u := range cut {
			drop[u] = true
		}
		var keep []NodeID
		for u := 0; u < g.N(); u++ {
			if !drop[NodeID(u)] {
				keep = append(keep, NodeID(u))
			}
		}
		sub, remap := g.InducedSubgraph(keep)
		if sub.Reachable(remap[s], remap[tt]) {
			t.Fatalf("trial %d: vertex cut fails to disconnect", trial)
		}
	}
}

// Max-flow/min-cut duality: the number of cut edges (unit capacities)
// equals the max flow value on random DAGs.
func TestMinCutMaxFlowDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 25; trial++ {
		g := randomDAG(rng, 16, 0.2)
		s, tt := NodeID(0), NodeID(g.N()-1)
		if !g.Reachable(s, tt) {
			continue
		}
		f := NewFlowNetwork(g.N())
		for _, e := range g.Edges() {
			f.AddEdge(int(e.U), int(e.V), 1)
		}
		flow := f.MaxFlow(int(s), int(tt))
		cut := MinEdgeCut(g, s, tt, nil)
		if int64(len(cut)) != flow {
			t.Fatalf("trial %d: |cut| %d != maxflow %d", trial, len(cut), flow)
		}
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
