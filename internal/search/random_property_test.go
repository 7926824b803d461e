package search_test

// Search invariants over randomly generated specifications and query
// streams (external test package to use the workload generator).

import (
	"math/rand"
	"testing"

	"provpriv/internal/privacy"
	"provpriv/internal/search"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

func TestRandomSpecSearchWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for seed := int64(0); seed < 8; seed++ {
		s, err := workload.RandomSpec(workload.SpecConfig{
			Seed: seed, Depth: 3, Fanout: 2, Chain: 5, SkipProb: 0.2,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		h, err := workflow.NewHierarchy(s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, q := range workload.RandomQueries(rng, nil, 12) {
			res, err := search.Search(s, search.ParseQuery(q))
			if err != nil {
				continue // unmatched phrases are fine
			}
			if err := res.Prefix().Validate(h); err != nil {
				t.Fatalf("seed %d query %q: invalid prefix: %v", seed, q, err)
			}
			if len(res.Matches) == 0 {
				t.Fatalf("seed %d query %q: result with no matches", seed, q)
			}
			for _, m := range res.Matches {
				if m.ZoomedTo == "" && search.MustView(t, res).Module(m.ModuleID) == nil {
					t.Fatalf("seed %d query %q: match %s invisible", seed, q, m.ModuleID)
				}
			}
		}
	}
}

// Access-view monotonicity: a finer access view never yields a coarser
// result prefix, and the result never exceeds the access view.
func TestRandomSpecSearchAccessMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for seed := int64(0); seed < 6; seed++ {
		s, err := workload.RandomSpec(workload.SpecConfig{
			Seed: seed, Depth: 3, Fanout: 2, Chain: 5, SkipProb: 0.2,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		h, _ := workflow.NewHierarchy(s)
		pol := privacy.NewPolicy(s.ID)
		coarse := workflow.NewPrefix(h.Root)
		fine := workflow.FullPrefix(h)
		for _, q := range workload.RandomQueries(rng, nil, 10) {
			phrases := search.ParseQuery(q)
			resC, errC := search.SearchWithAccess(s, phrases, coarse, pol, privacy.Public)
			resF, errF := search.SearchWithAccess(s, phrases, fine, pol, privacy.Owner)
			if errC != nil || errF != nil {
				continue
			}
			for wid := range resC.Prefix() {
				if !coarse.Contains(wid) {
					t.Fatalf("seed %d query %q: coarse result exceeds access view", seed, q)
				}
			}
			// Coarse prefix ⊆ fine prefix (same matches, less expansion).
			for wid := range resC.Prefix() {
				if !resF.Prefix().Contains(wid) {
					t.Fatalf("seed %d query %q: coarse prefix %v ⊄ fine %v",
						seed, q, resC.Prefix().IDs(), resF.Prefix().IDs())
				}
			}
		}
	}
}

// The drill-down invariant: if a phrase's chosen match sits in
// workflow W, every ancestor of W is in the result prefix.
func TestRandomSpecSearchPrefixCoversMatches(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		s, err := workload.RandomSpec(workload.SpecConfig{
			Seed: seed, Depth: 4, Fanout: 1, Chain: 4, SkipProb: 0.1,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		h, _ := workflow.NewHierarchy(s)
		// Query for a term guaranteed present: the first word of some
		// deep module's name.
		deepest := h.All()[len(h.All())-1]
		var term string
		for _, m := range s.Workflows[deepest].Modules {
			kws := m.AllKeywords()
			if len(kws) > 0 {
				term = kws[0]
				break
			}
		}
		if term == "" {
			continue
		}
		res, err := search.Search(s, search.ParseQuery(term))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, m := range res.Matches {
			if m.ZoomedTo != "" {
				continue
			}
			for cur := m.Workflow; cur != ""; cur = h.Parent(cur) {
				if !res.Prefix().Contains(cur) {
					t.Fatalf("seed %d: match in %s but ancestor %s not in prefix %v",
						seed, m.Workflow, cur, res.Prefix().IDs())
				}
				if cur == h.Root {
					break
				}
			}
		}
	}
}
