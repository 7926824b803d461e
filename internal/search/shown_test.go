package search_test

import (
	"math/rand"
	"reflect"
	"testing"

	"provpriv/internal/search"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// TestShownAgreesWithExpansion licenses answering a search without
// expanding the workflow. On seeded random specs, for every legal prefix
// of the hierarchy: workflow.ExpandIn succeeds (a validated spec has no
// prefix it cannot draw, so dropping the expansion dropped no error path),
// and a module is in the expanded view exactly when the hierarchy rule
// says the view shows it. Then, for the answers of random queries at every
// level, Result.View is the expansion of Result.Prefix and agrees with the
// matches the result reports.
func TestShownAgreesWithExpansion(t *testing.T) {
	shapes := []workload.SpecConfig{
		{Depth: 1, Fanout: 0, Chain: 3},
		{Depth: 3, Fanout: 2, Chain: 5, SkipProb: 0.2},
		{Depth: 3, Fanout: 3, Chain: 4, SkipProb: 0.4},
		{Depth: 4, Fanout: 2, Chain: 3, SkipProb: 0.1},
		{Depth: 5, Fanout: 1, Chain: 4, SkipProb: 0.3},
	}
	rng := rand.New(rand.NewSource(47))
	for _, cfg := range shapes {
		for seed := int64(0); seed < 4; seed++ {
			cfg.Seed = seed
			s, err := workload.RandomSpec(cfg)
			if err != nil {
				t.Fatalf("%+v: %v", cfg, err)
			}
			h, err := workflow.NewHierarchy(s)
			if err != nil {
				t.Fatalf("%+v: %v", cfg, err)
			}
			prefixes := workflow.Prefixes(h)
			for _, p := range prefixes {
				v, err := workflow.ExpandIn(s, h, p)
				if err != nil {
					t.Fatalf("%+v prefix %v: ExpandIn: %v", cfg, p.IDs(), err)
				}
				shown := 0
				for wid, w := range s.Workflows {
					for _, m := range w.Modules {
						rule := search.Shown(h, p, m.ID)
						if rule {
							shown++
						}
						if inView := v.Module(m.ID) != nil; inView != rule {
							t.Fatalf("%+v prefix %v: module %s of %s in view=%v, rule says %v", cfg, p.IDs(), m.ID, wid, inView, rule)
						}
					}
				}
				if shown != len(v.Modules) {
					t.Fatalf("%+v prefix %v: rule shows %d modules, view holds %d", cfg, p.IDs(), shown, len(v.Modules))
				}
			}

			pol, err := workload.RandomPolicy(s, seed+100)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range workload.RandomQueries(rng, nil, 12) {
				for _, level := range allLevels {
					res, err := search.SearchWithAccess(s, search.ParseQuery(q), pol.AccessView(h, level), pol, level)
					if err != nil {
						continue // a phrase nobody at this level can match
					}
					got, err := res.View()
					if err != nil {
						t.Fatalf("%+v query %q level %v: View: %v", cfg, q, level, err)
					}
					want, err := workflow.ExpandIn(s, h, res.Prefix())
					if err != nil {
						t.Fatalf("%+v query %q level %v: ExpandIn: %v", cfg, q, level, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%+v query %q level %v: View() is not the expansion of prefix %v", cfg, q, level, res.Prefix().IDs())
					}
					for _, m := range res.Matches {
						id := m.ModuleID
						if m.ZoomedTo != "" {
							id = m.ZoomedTo
						}
						if got.Module(id) == nil {
							t.Fatalf("%+v query %q level %v: reported match %+v is not in the view", cfg, q, level, m)
						}
						if m.ZoomedTo != "" && got.Module(m.ModuleID) != nil {
							t.Fatalf("%+v query %q level %v: match %+v zoomed out although the view shows it", cfg, q, level, m)
						}
					}
				}
			}
		}
	}
}
