package repo

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"provpriv/internal/privacy"
	"provpriv/internal/rank"
	"provpriv/internal/search"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// visibleSpecTerms extracts the normalized keyword terms of the spec's
// modules visible at level — the document the ranking oracle's per-level
// rank.Corpus holds for this spec.
func visibleSpecTerms(s *workflow.Spec, pol *privacy.Policy, level privacy.Level) []string {
	var terms []string
	for _, wid := range s.WorkflowIDs() {
		for _, m := range s.Workflows[wid].Modules {
			if pol != nil && !pol.CanSeeModule(level, m.ID) {
				continue
			}
			for _, kw := range m.AllKeywords() {
				terms = append(terms, search.Normalize(kw))
			}
		}
	}
	return terms
}

// reclassify moves a third of the spec's modules to a random level, so
// that whole terms of a spec start above Public often enough to matter.
func reclassify(rng *rand.Rand, s *workflow.Spec, pol *privacy.Policy) *privacy.Policy {
	for _, wid := range s.WorkflowIDs() {
		for _, m := range s.Workflows[wid].Modules {
			if rng.Intn(3) == 0 {
				pol.ModuleLevels[m.ID] = privacy.Level(rng.Intn(4))
			}
		}
	}
	return pol
}

// rankedSpec builds a random spec in which some modules carry a keyword
// that normalizes to a term they already have ("filters" beside
// "filter") and some an extra vocabulary word, with a random policy.
func rankedSpec(t testing.TB, rng *rand.Rand, seed int64, id string) (*workflow.Spec, *privacy.Policy) {
	t.Helper()
	s, err := workload.RandomSpec(workload.SpecConfig{Seed: seed, ID: id, Depth: 3, Fanout: 2, Chain: 4, SkipProb: 0.2})
	if err != nil {
		t.Fatalf("RandomSpec: %v", err)
	}
	vocab := workload.DefaultVocab()
	for _, wid := range s.WorkflowIDs() {
		for _, m := range s.Workflows[wid].Modules {
			if kws := m.AllKeywords(); len(kws) > 0 && rng.Intn(3) == 0 {
				m.Keywords = append(m.Keywords, kws[0]+"s")
			}
			if rng.Intn(3) == 0 {
				m.Keywords = append(m.Keywords, vocab[rng.Intn(len(vocab))])
			}
		}
	}
	pol, err := workload.RandomPolicy(s, seed+500)
	if err != nil {
		t.Fatalf("RandomPolicy: %v", err)
	}
	return s, reclassify(rng, s, pol)
}

// checkRankingAgainstCorpus holds every served (SpecID, Score) list to
// the reference the index replaced: per level, a rank.Corpus fed the
// visible keywords of what each shard holds now, ranked, bucketized when
// asked, and cut down to the specs search.Matches accepts. Scores must be
// equal as floats, not close.
func checkRankingAgainstCorpus(t *testing.T, r *Repository, stage string, queries []string) {
	t.Helper()
	for _, level := range []privacy.Level{privacy.Public, privacy.Registered, privacy.Analyst, privacy.Owner} {
		corpus := rank.NewCorpus()
		for _, id := range r.SpecIDs() {
			corpus.Add(id, visibleSpecTerms(r.Spec(id), r.policy(id), level))
		}
		for _, q := range queries {
			phrases := search.ParseQuery(q)
			var flat []string
			for _, phrase := range phrases {
				flat = append(flat, phrase...)
			}
			for _, buckets := range []int{0, 3} {
				ranked := corpus.Rank(flat)
				if buckets > 0 {
					ranked = rank.Bucketize(ranked, buckets)
				}
				var want []rank.Ranked
				for _, rk := range ranked {
					if search.Matches(r.Spec(rk.Doc), phrases, r.policy(rk.Doc), level) {
						want = append(want, rk)
					}
				}
				hits, total, err := r.SearchPageCtx(context.Background(), level.String(), q, SearchOptions{Buckets: buckets})
				if err != nil {
					t.Fatalf("%s: level %v query %q: %v", stage, level, q, err)
				}
				var got []rank.Ranked
				for _, h := range hits {
					got = append(got, rank.Ranked{Doc: h.SpecID, Score: h.Score})
				}
				if total != len(want) || len(got) != len(want) {
					t.Fatalf("%s: level %v query %q buckets %d: served %v (total %d), corpus ranks %v", stage, level, q, buckets, got, total, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: level %v query %q buckets %d: hit %d is %v, corpus has %v", stage, level, q, buckets, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestServedRankingEqualsCorpusOracle: the index is the only ranking
// state the repository keeps, so it — bulk-built by Load for half the
// specs, published per spec by AddSpec for the rest, then churned by
// RemoveSpec, re-registration of the removed id and UpdatePolicy — must
// serve exactly what a per-level rank.Corpus rebuilt from scratch would.
func TestServedRankingEqualsCorpusOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 8
	specs := make([]*workflow.Spec, n)
	pols := make([]*privacy.Policy, n)
	for i := range specs {
		specs[i], pols[i] = rankedSpec(t, rng, int64(30+i), fmt.Sprintf("k%d", i))
	}
	seed := New()
	for i := 0; i < n/2; i++ {
		if err := seed.AddSpec(specs[i], pols[i]); err != nil {
			t.Fatalf("AddSpec: %v", err)
		}
	}
	dir := t.TempDir()
	if err := seed.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	r, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for i := n / 2; i < n; i++ {
		if err := r.AddSpec(specs[i], pols[i]); err != nil {
			t.Fatalf("AddSpec: %v", err)
		}
	}
	for _, l := range []privacy.Level{privacy.Public, privacy.Registered, privacy.Analyst, privacy.Owner} {
		r.AddUser(privacy.User{Name: l.String(), Level: l, Group: "g-" + l.String()})
	}
	queries := append(workload.RandomQueries(rng, nil, 12), "filters", "query query", "Risks, query", "filter, merge")

	checkRankingAgainstCorpus(t, r, "loaded + added", queries)

	if err := r.RemoveSpec("k1"); err != nil { // bulk-built
		t.Fatalf("RemoveSpec: %v", err)
	}
	if err := r.RemoveSpec("k6"); err != nil { // added
		t.Fatalf("RemoveSpec: %v", err)
	}
	checkRankingAgainstCorpus(t, r, "removed", queries)

	again, againPol := rankedSpec(t, rng, 99, "k1")
	if err := r.AddSpec(again, againPol); err != nil {
		t.Fatalf("re-AddSpec: %v", err)
	}
	checkRankingAgainstCorpus(t, r, "re-registered", queries)

	for _, id := range []string{"k0", "k1", "k5"} {
		if err := r.UpdatePolicy(id, reclassify(rng, r.Spec(id), privacy.NewPolicy(id))); err != nil {
			t.Fatalf("UpdatePolicy: %v", err)
		}
	}
	if err := r.UpdatePolicy("k2", nil); err != nil {
		t.Fatalf("UpdatePolicy: %v", err)
	}
	checkRankingAgainstCorpus(t, r, "policies updated", queries)
}
