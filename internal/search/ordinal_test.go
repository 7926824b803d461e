package search_test

import (
	"math/rand"
	"reflect"
	"testing"

	"provpriv/internal/search"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// TestOrdinalViewMatchesReference holds the hit pass, decided on workflow
// and module ordinals, to the string-keyed pass it replaced
// (search.ReferenceSearch): on seeded random specs and policies, for random
// queries — repeated phrases among them — at every level, both answer, or
// both fail, with the same prefix, matches and zoom-out flag.
func TestOrdinalViewMatchesReference(t *testing.T) {
	shapes := []workload.SpecConfig{
		{Depth: 1, Fanout: 0, Chain: 3},
		{Depth: 3, Fanout: 2, Chain: 5, SkipProb: 0.2},
		{Depth: 4, Fanout: 3, Chain: 4, SkipProb: 0.3},
		{Depth: 6, Fanout: 2, Chain: 3, SkipProb: 0.1},
	}
	rng := rand.New(rand.NewSource(45))
	answered, zoomed := 0, 0
	for _, cfg := range shapes {
		for seed := int64(0); seed < 6; seed++ {
			cfg.Seed = seed
			s, err := workload.RandomSpec(cfg)
			if err != nil {
				t.Fatal(err)
			}
			h, err := workflow.NewHierarchy(s)
			if err != nil {
				t.Fatal(err)
			}
			pol, err := workload.RandomPolicy(s, seed+7)
			if err != nil {
				t.Fatal(err)
			}
			queries := workload.RandomQueries(rng, nil, 24)
			queries = append(queries, queries[0]+", "+queries[0])
			for _, q := range queries {
				for _, level := range allLevels {
					access := pol.AccessView(h, level)
					res, err := search.SearchWithAccess(s, search.ParseQuery(q), access, pol, level)
					prefix, matches, zoomedOut, refErr := search.ReferenceSearch(s, search.ParseQuery(q), access, pol, level)
					if (err == nil) != (refErr == nil) {
						t.Fatalf("%+v query %q level %v: error %v, reference %v", cfg, q, level, err, refErr)
					}
					if err != nil {
						continue
					}
					if !reflect.DeepEqual(res.Prefix(), prefix) || !reflect.DeepEqual(res.Matches, matches) || res.ZoomedOut != zoomedOut {
						t.Fatalf("%+v query %q level %v:\nprefix %v matches %+v zoomed %v\nreference prefix %v matches %+v zoomed %v",
							cfg, q, level, res.Prefix().IDs(), res.Matches, res.ZoomedOut, prefix.IDs(), matches, zoomedOut)
					}
					answered++
					if res.ZoomedOut {
						zoomed++
					}
				}
			}
		}
	}
	if answered == 0 || zoomed == 0 {
		t.Fatalf("%d answers, %d zoomed out: the fixture exercises too little", answered, zoomed)
	}
	t.Logf("%d answers compared, %d zoomed out", answered, zoomed)
}
