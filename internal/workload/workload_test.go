package workload

import (
	"math/rand"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/modpriv"
	"provpriv/internal/workflow"
)

func TestRandomSpecValidates(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		s, err := RandomSpec(SpecConfig{Seed: seed, Depth: 3, Fanout: 2, Chain: 4, SkipProb: 0.3})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: invalid: %v", seed, err)
		}
		if len(s.Workflows) < 2 {
			t.Fatalf("seed %d: no hierarchy generated", seed)
		}
	}
}

func TestRandomSpecDeterministic(t *testing.T) {
	a, _ := RandomSpec(SpecConfig{Seed: 5, Depth: 2, Fanout: 1, Chain: 3})
	b, _ := RandomSpec(SpecConfig{Seed: 5, Depth: 2, Fanout: 1, Chain: 3})
	da, _ := workflow.MarshalSpec(a)
	db, _ := workflow.MarshalSpec(b)
	if string(da) != string(db) {
		t.Fatal("same seed, different specs")
	}
}

func TestRandomSpecConfigValidation(t *testing.T) {
	bad := []SpecConfig{
		{Depth: 0, Chain: 3},
		{Depth: 1, Chain: 0},
		{Depth: 1, Chain: 2, Fanout: 5},
		{Depth: 1, Chain: 2, Fanout: -1},
	}
	for i, cfg := range bad {
		if _, err := RandomSpec(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestRandomSpecExecutes(t *testing.T) {
	s, err := RandomSpec(SpecConfig{Seed: 42, Depth: 3, Fanout: 2, Chain: 4, SkipProb: 0.4})
	if err != nil {
		t.Fatalf("RandomSpec: %v", err)
	}
	r := exec.NewRunner(s, nil)
	e, err := r.Run("E1", RandomInputs(s, 1))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := e.Validate(); err != nil {
		t.Fatalf("execution invalid: %v", err)
	}
	if len(e.Nodes) < 8 {
		t.Fatalf("execution too small: %d nodes", len(e.Nodes))
	}
}

func TestRandomSpecHierarchyDepth(t *testing.T) {
	s, _ := RandomSpec(SpecConfig{Seed: 3, Depth: 4, Fanout: 1, Chain: 3})
	h, err := workflow.NewHierarchy(s)
	if err != nil {
		t.Fatalf("NewHierarchy: %v", err)
	}
	maxDepth := 0
	for _, wid := range h.All() {
		if d := h.Depth(wid); d > maxDepth {
			maxDepth = d
		}
	}
	if maxDepth != 3 { // Depth=4 levels → max tree depth 3
		t.Fatalf("max depth = %d, want 3", maxDepth)
	}
}

func TestZipfPickSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[ZipfPick(rng, 10)]++
	}
	if counts[0] <= counts[9] {
		t.Fatalf("Zipf not skewed: first=%d last=%d", counts[0], counts[9])
	}
	if counts[0] < 2000 {
		t.Fatalf("rank 0 too rare: %d", counts[0])
	}
}

func TestRandomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	qs := RandomQueries(rng, nil, 20)
	if len(qs) != 20 {
		t.Fatalf("n = %d", len(qs))
	}
	for _, q := range qs {
		if q == "" {
			t.Fatal("empty query generated")
		}
	}
}

func TestLayeredDAG(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := LayeredDAG(rng, 5, 10, 3)
	if g.N() != 50 {
		t.Fatalf("N = %d", g.N())
	}
	if !g.IsAcyclic() {
		t.Fatal("layered DAG cyclic")
	}
	if g.M() < 40 {
		t.Fatalf("too few edges: %d", g.M())
	}
}

func TestDomains(t *testing.T) {
	k := KDomain(5, "x")
	if k.Size("x") != 5 {
		t.Fatalf("KDomain = %v", k)
	}
}

func TestRandomTableFuncDeterministicAndEnumerable(t *testing.T) {
	dom := KDomain(3, "a", "b", "y", "z")
	fn := RandomTableFunc(9, []string{"y", "z"}, dom)
	in := map[string]exec.Value{"a": "v1", "b": "v2"}
	o1 := fn(in)
	o2 := fn(in)
	if o1["y"] != o2["y"] || o1["z"] != o2["z"] {
		t.Fatal("nondeterministic table func")
	}
	rel, err := modpriv.Enumerate("m", fn, []string{"a", "b"}, []string{"y", "z"}, dom)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	if len(rel.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rel.Rows))
	}
	// Different seed gives a (very likely) different relation.
	fn2 := RandomTableFunc(10, []string{"y", "z"}, dom)
	diff := false
	for _, row := range rel.Rows {
		o := fn2(row.In)
		if o["y"] != row.Out["y"] || o["z"] != row.Out["z"] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("two seeds produced identical relations")
	}
}

func TestRandomInputsCoversSource(t *testing.T) {
	s, _ := RandomSpec(SpecConfig{Seed: 1, Depth: 1, Chain: 3})
	in := RandomInputs(s, 9)
	for _, m := range s.RootWorkflow().Modules {
		if m.Kind == workflow.Source {
			for _, a := range m.Outputs {
				if _, ok := in[a]; !ok {
					t.Fatalf("input %s missing", a)
				}
			}
		}
	}
}

func TestRandomPolicyValidates(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		s, err := RandomSpec(SpecConfig{Seed: seed, Depth: 3, Fanout: 2, Chain: 4})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pol, err := RandomPolicy(s, seed)
		if err != nil {
			t.Fatalf("seed %d: RandomPolicy: %v", seed, err)
		}
		if err := pol.Validate(s); err != nil {
			t.Fatalf("seed %d: invalid policy: %v", seed, err)
		}
	}
}

func TestRandomPolicyDeepWorkflowsNeedHigherLevels(t *testing.T) {
	s, _ := RandomSpec(SpecConfig{Seed: 2, Depth: 4, Fanout: 1, Chain: 3})
	pol, err := RandomPolicy(s, 2)
	if err != nil {
		t.Fatalf("RandomPolicy: %v", err)
	}
	h, _ := workflow.NewHierarchy(s)
	for lvl, wids := range pol.ViewGrants {
		for _, wid := range wids {
			if int(lvl) < h.Depth(wid) {
				t.Fatalf("workflow %s (depth %d) granted at too-low level %v", wid, h.Depth(wid), lvl)
			}
		}
	}
}
