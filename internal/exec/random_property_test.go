package exec_test

// Cross-package property tests: the exec invariants of DESIGN.md §5
// checked on randomly generated hierarchical specifications, not just
// the hand-built paper example. External test package to use the
// workload generator without an import cycle.

import (
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

func randomRun(t testing.TB, seed int64) (*workflow.Spec, *exec.Execution) {
	t.Helper()
	s, err := workload.RandomSpec(workload.SpecConfig{
		Seed: seed, Depth: 3, Fanout: 2, Chain: 4, SkipProb: 0.35,
	})
	if err != nil {
		t.Fatalf("seed %d: RandomSpec: %v", seed, err)
	}
	e, err := exec.NewRunner(s, nil).Run("E", workload.RandomInputs(s, seed))
	if err != nil {
		t.Fatalf("seed %d: Run: %v", seed, err)
	}
	return s, e
}

func TestRandomSpecExecutionInvariants(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		s, e := randomRun(t, seed)
		if err := e.Validate(); err != nil {
			t.Fatalf("seed %d: invalid execution: %v", seed, err)
		}
		g := e.Graph()
		if !g.IsAcyclic() {
			t.Fatalf("seed %d: cyclic execution", seed)
		}
		// Every item is produced by exactly one node (its Producer), and
		// appears on no edge upstream of that node.
		for id, it := range e.Items {
			prod := g.Lookup(it.Producer)
			if prod == -1 {
				t.Fatalf("seed %d: item %s producer missing", seed, id)
			}
		}
		// Provenance of every item is connected and contains the producer.
		for _, id := range e.ItemIDs() {
			p, err := exec.ProvenanceIn(e, e.Graph(), id)
			if err != nil {
				t.Fatalf("seed %d: Provenance(%s): %v", seed, id, err)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("seed %d: provenance of %s invalid: %v", seed, id, err)
			}
			if p.Node(e.Items[id].Producer) == nil {
				t.Fatalf("seed %d: provenance of %s misses producer", seed, id)
			}
		}
		_ = s
	}
}

func TestRandomSpecCollapseInvariants(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		s, e := randomRun(t, seed)
		h, err := workflow.NewHierarchy(s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prefixes := workflow.Prefixes(h)
		if len(prefixes) > 40 {
			prefixes = prefixes[:40]
		}
		fullItems := make(map[string]bool)
		for _, id := range e.ItemIDs() {
			fullItems[id] = true
		}
		for _, p := range prefixes {
			v, err := exec.Collapse(e, s, p)
			if err != nil {
				t.Fatalf("seed %d prefix %v: %v", seed, p.IDs(), err)
			}
			if err := v.Validate(); err != nil {
				t.Fatalf("seed %d prefix %v: invalid view: %v", seed, p.IDs(), err)
			}
			if !v.Graph().IsAcyclic() {
				t.Fatalf("seed %d prefix %v: cyclic view", seed, p.IDs())
			}
			for _, id := range v.ItemIDs() {
				if !fullItems[id] {
					t.Fatalf("seed %d prefix %v: item %s fabricated", seed, p.IDs(), id)
				}
			}
		}
	}
}

// Downstream/provenance duality: item b is in Downstream(a) iff a's
// producer is in b's provenance node set or upstream of b's producer.
func TestRandomSpecDownstreamDuality(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		_, e := randomRun(t, seed)
		ids := e.ItemIDs()
		if len(ids) > 12 {
			ids = ids[:12]
		}
		for _, a := range ids {
			down, err := exec.Downstream(e, a)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			inDown := make(map[string]bool)
			for _, d := range down {
				inDown[d] = true
			}
			for _, b := range ids {
				p, err := exec.ProvenanceIn(e, e.Graph(), b)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				producerInProv := p.Node(e.Items[a].Producer) != nil
				if producerInProv != inDown[b] {
					t.Fatalf("seed %d: duality violated for a=%s b=%s: prov=%v down=%v",
						seed, a, b, producerInProv, inDown[b])
				}
			}
		}
	}
}

func TestRandomSpecJSONRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		_, e := randomRun(t, seed)
		data, err := exec.MarshalExecution(e)
		if err != nil {
			t.Fatalf("seed %d: marshal: %v", seed, err)
		}
		e2, err := exec.UnmarshalExecution(data)
		if err != nil {
			t.Fatalf("seed %d: unmarshal: %v", seed, err)
		}
		if e2.ASCII() != e.ASCII() {
			t.Fatalf("seed %d: round trip changed execution", seed)
		}
	}
}
