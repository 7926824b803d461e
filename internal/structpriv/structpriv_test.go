package structpriv

import (
	"math/rand"
	"strings"
	"testing"

	"provpriv/internal/graph"
)

// w3Graph builds the paper's W3 subworkflow graph (Section 3's running
// example for structural privacy):
//
//	M9 -> M12 -> M13 -> M14 -> M15
//	M9 -> M10 -> M11 -> M15
//	M13 -> M11
func w3Graph() *graph.Graph {
	g := graph.New()
	for _, n := range []string{"M9", "M10", "M11", "M12", "M13", "M14", "M15"} {
		g.AddNode(n)
	}
	edge := func(a, b string) { g.AddEdge(g.Lookup(a), g.Lookup(b)) }
	edge("M9", "M12")
	edge("M9", "M10")
	edge("M12", "M13")
	edge("M13", "M14")
	edge("M13", "M11")
	edge("M10", "M11")
	edge("M11", "M15")
	edge("M14", "M15")
	return g
}

func hidden13to11() []Pair { return []Pair{{From: "M13", To: "M11"}} }

func TestCutEdgesHidesPair(t *testing.T) {
	g := w3Graph()
	res, err := HidePairs(g, hidden13to11(), CutEdges, nil)
	if err != nil {
		t.Fatalf("HidePairs: %v", err)
	}
	if !res.Metrics.HiddenOK {
		t.Fatal("pair still inferable after cut")
	}
	// Min cut is the single edge M13->M11.
	if len(res.RemovedEdges) != 1 || res.RemovedEdges[0] != (NamedEdge{From: "M13", To: "M11"}) {
		t.Fatalf("removed = %v, want [M13->M11]", res.RemovedEdges)
	}
	// Cuts are sound: no extraneous pairs.
	if res.Metrics.ExtraneousPairs != 0 {
		t.Fatalf("cut introduced %d extraneous pairs", res.Metrics.ExtraneousPairs)
	}
	// The original graph is untouched.
	if !g.HasEdge(g.Lookup("M13"), g.Lookup("M11")) {
		t.Fatal("input graph mutated")
	}
}

func TestCutEdgesCollateralLoss(t *testing.T) {
	// The paper: deleting M13->M11 also hides that M12 reaches M11 —
	// collateral loss the metrics must report.
	g := w3Graph()
	res, _ := HidePairs(g, hidden13to11(), CutEdges, nil)
	if res.Metrics.LostPairs == 0 {
		t.Fatal("expected collateral loss (e.g. M12->M11)")
	}
	v := res.Graph
	if v.Reachable(v.Lookup("M12"), v.Lookup("M11")) {
		t.Fatal("M12 still reaches M11 in cut view")
	}
}

func TestCutEdgesWeighted(t *testing.T) {
	// Hide M9->M15. Unweighted min cuts include {M9->M12, M9->M10} and
	// {M11->M15, M14->M15}. Making M9->M12 very expensive forces the cut
	// to avoid it.
	g := w3Graph()
	w := func(e NamedEdge) int64 {
		if e == (NamedEdge{From: "M9", To: "M12"}) {
			return 100
		}
		return 1
	}
	res, err := HidePairs(g, []Pair{{From: "M9", To: "M15"}}, CutEdges, w)
	if err != nil {
		t.Fatalf("HidePairs: %v", err)
	}
	if !res.Metrics.HiddenOK {
		t.Fatal("pair still inferable")
	}
	for _, e := range res.RemovedEdges {
		if e == (NamedEdge{From: "M9", To: "M12"}) {
			t.Fatal("weighted cut removed the expensive edge")
		}
	}
}

func TestCutVertices(t *testing.T) {
	// Hide M12 -> M15: vertex cuts must remove an intermediate module
	// (M13, or M14+M11...).
	g := w3Graph()
	res, err := HidePairs(g, []Pair{{From: "M12", To: "M15"}}, CutVertices, nil)
	if err != nil {
		t.Fatalf("HidePairs: %v", err)
	}
	if !res.Metrics.HiddenOK {
		t.Fatal("pair still inferable")
	}
	if len(res.RemovedNodes) == 0 {
		t.Fatal("no nodes removed")
	}
	if res.Metrics.ExtraneousPairs != 0 {
		t.Fatal("vertex cut introduced extraneous pairs")
	}
}

func TestCutVerticesDirectEdgeFallback(t *testing.T) {
	g := w3Graph()
	res, err := HidePairs(g, hidden13to11(), CutVertices, nil)
	if err != nil {
		t.Fatalf("HidePairs: %v", err)
	}
	if !res.Metrics.HiddenOK {
		t.Fatal("direct edge pair not hidden")
	}
}

func TestClusterHidesPairAndMatchesPaperExample(t *testing.T) {
	// Paper: "we could cluster M11 and M13 into a single composite
	// module. However, we may now infer incorrect provenance
	// information, e.g., that there is a path from M10 to M14."
	g := w3Graph()
	res, err := HidePairs(g, hidden13to11(), Cluster, nil)
	if err != nil {
		t.Fatalf("HidePairs: %v", err)
	}
	if !res.Metrics.HiddenOK {
		t.Fatal("pair externally visible despite clustering")
	}
	if strings.Join(res.Cluster, ",") != "M11,M13" {
		t.Fatalf("cluster = %v", res.Cluster)
	}
	ext := ExtraneousPairs(g, res)
	found := false
	for _, p := range ext {
		if p == (Pair{From: "M10", To: "M14"}) {
			found = true
		}
	}
	if !found {
		t.Fatalf("extraneous pairs = %v, want to include M10->M14", ext)
	}
	if IsSound(g, res) {
		t.Fatal("unsound view reported sound")
	}
	if res.Metrics.ExtraneousPairs != len(ext) {
		t.Fatalf("metrics extraneous = %d, detector = %d", res.Metrics.ExtraneousPairs, len(ext))
	}
	// Clustering loses no true visible-pair connectivity.
	if res.Metrics.LostPairs != 0 {
		t.Fatalf("cluster lost %d true pairs", res.Metrics.LostPairs)
	}
}

func TestClusterQuotientAcyclic(t *testing.T) {
	g := w3Graph()
	res, err := HidePairs(g, hidden13to11(), Cluster, nil)
	if err != nil {
		t.Fatalf("HidePairs: %v", err)
	}
	if !res.Graph.IsAcyclic() {
		t.Fatal("quotient graph cyclic")
	}
}

func TestConvexifyAbsorbsIntermediates(t *testing.T) {
	// Clustering M9 with M14 must absorb the path M12, M13 between them
	// (otherwise the quotient would be cyclic).
	g := w3Graph()
	res, err := HideByCluster(g, nil, []string{"M9", "M14"})
	if err != nil {
		t.Fatalf("HideByCluster: %v", err)
	}
	joined := strings.Join(res.Cluster, ",")
	for _, want := range []string{"M12", "M13"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("cluster = %v, want %s absorbed", res.Cluster, want)
		}
	}
	if !res.Graph.IsAcyclic() {
		t.Fatal("quotient cyclic after convexify")
	}
}

func TestGrowToSound(t *testing.T) {
	g := w3Graph()
	res, err := GrowToSound(g, hidden13to11(), []string{"M11", "M13"}, 5)
	if err != nil {
		t.Fatalf("GrowToSound: %v", err)
	}
	if !IsSound(g, res) {
		t.Fatal("result not sound")
	}
	if !res.Metrics.HiddenOK {
		t.Fatal("privacy lost while growing")
	}
	if len(res.Cluster) <= 2 {
		t.Fatalf("cluster did not grow: %v", res.Cluster)
	}
	// Growing discloses fewer modules.
	if res.Metrics.ModulesVisible >= 6 {
		t.Fatalf("modules visible = %d", res.Metrics.ModulesVisible)
	}
}

func TestSplitToSoundLosesPrivacyHere(t *testing.T) {
	// Splitting {M11,M13} must separate the pair (the only sound
	// 2-segmentation) and therefore lose privacy — the trade-off the
	// paper highlights.
	g := w3Graph()
	_, private, err := SplitToSound(g, hidden13to11(), []string{"M11", "M13"})
	if err != nil {
		t.Fatalf("SplitToSound: %v", err)
	}
	if private {
		t.Fatal("split claims privacy preserved; pair must have been separated")
	}
}

func TestHidePairsValidation(t *testing.T) {
	g := w3Graph()
	if _, err := HidePairs(g, nil, CutEdges, nil); err == nil {
		t.Fatal("empty pairs accepted")
	}
	if _, err := HidePairs(g, []Pair{{From: "MX", To: "M11"}}, CutEdges, nil); err == nil {
		t.Fatal("unknown module accepted")
	}
	if _, err := HideByCluster(g, []Pair{{From: "M9", To: "M15"}}, []string{"M11", "M13"}); err == nil {
		t.Fatal("pair outside cluster accepted")
	}
	if _, err := HideByCluster(g, nil, []string{"M11"}); err == nil {
		t.Fatal("singleton cluster accepted")
	}
}

func TestUtilityScore(t *testing.T) {
	m := Metrics{TruePairs: 10, PreservedPairs: 8, ExtraneousPairs: 1}
	if got := m.UtilityScore(); got < 0.699 || got > 0.701 {
		t.Fatalf("UtilityScore = %v, want ≈0.7", got)
	}
	if (Metrics{}).UtilityScore() != 1 {
		t.Fatal("empty metrics should score 1")
	}
	bad := Metrics{TruePairs: 2, PreservedPairs: 0, ExtraneousPairs: 5}
	if bad.UtilityScore() != 0 {
		t.Fatal("score not clamped at 0")
	}
}

// Property: on the paper graph, cutting is always sound and clustering
// always preserves visible true pairs; the requested pair is hidden
// under every strategy.
func TestStrategyInvariants(t *testing.T) {
	g := w3Graph()
	pairs := [][]Pair{
		{{From: "M13", To: "M11"}},
		{{From: "M12", To: "M15"}},
		{{From: "M9", To: "M11"}},
	}
	for _, ps := range pairs {
		for _, strat := range []Strategy{CutEdges, CutVertices, Cluster} {
			res, err := HidePairs(g, ps, strat, nil)
			if err != nil {
				t.Fatalf("%v %v: %v", strat, ps, err)
			}
			if !res.Metrics.HiddenOK {
				t.Errorf("%v %v: pair not hidden", strat, ps)
			}
			switch strat {
			case CutEdges, CutVertices:
				if res.Metrics.ExtraneousPairs != 0 {
					t.Errorf("%v %v: cut unsound", strat, ps)
				}
			case Cluster:
				if res.Metrics.LostPairs != 0 {
					t.Errorf("%v %v: cluster lost true pairs", strat, ps)
				}
			}
		}
	}
}

// Property: convexify is idempotent and its result contains the seed.
func TestConvexifyIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 20; trial++ {
		g := graph.New()
		n := 20
		for i := 0; i < n; i++ {
			g.AddNode(name2(i))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.15 {
					g.AddEdge(graph.NodeID(i), graph.NodeID(j))
				}
			}
		}
		seed := []string{g.Name(graph.NodeID(rng.Intn(n))), g.Name(graph.NodeID(rng.Intn(n)))}
		once := convexify(g, seed)
		twice := convexify(g, once)
		if len(once) != len(twice) {
			t.Fatalf("trial %d: not idempotent: %v vs %v", trial, once, twice)
		}
		inOnce := map[string]bool{}
		for _, m := range once {
			inOnce[m] = true
		}
		for _, s := range seed {
			if !inOnce[s] {
				t.Fatalf("trial %d: seed %s dropped", trial, s)
			}
		}
		// The quotient of a convex set is acyclic.
		if len(once) >= 2 {
			q, _ := buildQuotient(g, once)
			if !q.IsAcyclic() {
				t.Fatalf("trial %d: quotient cyclic after convexify", trial)
			}
		}
	}
}

func name2(i int) string {
	return "v" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}
