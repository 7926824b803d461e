package search_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"provpriv/internal/index"
	"provpriv/internal/privacy"
	"provpriv/internal/rank"
	"provpriv/internal/search"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

var allLevels = []privacy.Level{privacy.Public, privacy.Registered, privacy.Analyst, privacy.Owner}

// oracleCorpus generates n random specs with random policies. Some
// modules get an extra keyword that normalizes to a term they already
// carry ("filters" beside "filter") and some an unrelated vocabulary
// word, so duplicate-normalizing keywords and multi-term phrases that
// span name and keywords are both exercised.
func oracleCorpus(tb testing.TB, specSeed, polSeed int64, n int, cfg workload.SpecConfig) ([]*workflow.Spec, map[string]*privacy.Policy) {
	tb.Helper()
	rng := rand.New(rand.NewSource(specSeed ^ polSeed<<17))
	vocab := workload.DefaultVocab()
	specs := make([]*workflow.Spec, 0, n)
	pols := make(map[string]*privacy.Policy, n)
	for i := 0; i < n; i++ {
		cfg.Seed, cfg.ID = specSeed+int64(i), fmt.Sprintf("o%d", i)
		s, err := workload.RandomSpec(cfg)
		if err != nil {
			tb.Fatalf("RandomSpec(%d): %v", cfg.Seed, err)
		}
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
		pol, err := workload.RandomPolicy(s, polSeed+int64(i))
		if err != nil {
			tb.Fatalf("RandomPolicy(%d): %v", polSeed, err)
		}
		specs = append(specs, s)
		pols[s.ID] = pol
	}
	return specs, pols
}

// visibleTerms is the document the ranking oracle holds for a spec at a
// level: every keyword, normalized, of every module the level may see.
func visibleTerms(s *workflow.Spec, pol *privacy.Policy, level privacy.Level) []string {
	var terms []string
	for _, wid := range s.WorkflowIDs() {
		for _, m := range s.Workflows[wid].Modules {
			if pol.CanSeeModule(level, m.ID) {
				for _, kw := range m.AllKeywords() {
					terms = append(terms, search.Normalize(kw))
				}
			}
		}
	}
	return terms
}

// eagerEvidence is the reference Matches.Modules is held to: the evidence
// Match used to build for every match, eagerly — per phrase, the postings
// of the modules visible at level that carry all its terms, in canonical
// posting order (level, then module id) — found here by scanning the spec
// and mapped through h to the hierarchy's module ordinals.
func eagerEvidence(h *workflow.Hierarchy, s *workflow.Spec, pol *privacy.Policy, phrases [][]string, level privacy.Level) [][]int32 {
	ev := make([][]int32, len(phrases))
	for i, phrase := range phrases {
		var ps []index.Posting
		for _, wid := range s.WorkflowIDs() {
			for _, m := range s.Workflows[wid].Modules {
				terms := search.ModuleTerms(m)
				if pol.CanSeeModule(level, m.ID) && !slices.ContainsFunc(phrase, func(t string) bool { return !terms[t] }) {
					ps = append(ps, index.Posting{SpecID: s.ID, ModuleID: m.ID, Workflow: wid, MinLevel: pol.ModuleLevels[m.ID]})
				}
			}
		}
		slices.SortFunc(ps, func(a, b index.Posting) int {
			return cmp.Or(cmp.Compare(a.MinLevel, b.MinLevel), strings.Compare(a.ModuleID, b.ModuleID))
		})
		for _, p := range ps {
			ev[i] = append(ev[i], h.Place(p.ModuleID).Ord)
		}
	}
	return ev
}

// checkIndexAgainstOracle holds index.Inverted.Match to the scan for one
// query at every level: the matched spec set must equal
// {spec : search.Matches}, each spec's evidence (Matches.Modules, asked of
// one answer for every match in turn) must equal the eager reference and
// name the scan's raw matches, the answer must name the (spec, policy)
// pointers it describes, and the view built from the handed modules
// (SearchMatched) must equal the view built by scanning
// (SearchWithAccess) — which must succeed exactly when Matches holds.
// Scores are held to a rank.Corpus of the level's visible documents,
// float for float: each match's Score, and RankAll against Rank.
func checkIndexAgainstOracle(tb testing.TB, ix *index.Inverted, specs []*workflow.Spec, pols map[string]*privacy.Policy, q string) {
	tb.Helper()
	phrases := search.ParseQuery(q)
	var flat []string
	for _, phrase := range phrases {
		flat = append(flat, phrase...)
	}
	for _, level := range allLevels {
		corpus := rank.NewCorpus()
		for _, s := range specs {
			corpus.Add(s.ID, visibleTerms(s, pols[s.ID], level))
		}
		ms := ix.Match(phrases, level)
		if all, want := ms.RankAll(), corpus.Rank(flat); !reflect.DeepEqual(all, want) {
			tb.Fatalf("query %q level %v: index ranks %v, corpus %v", q, level, all, want)
		}
		got := make(map[string]index.SpecMatch)
		for _, m := range ms.Specs {
			if _, dup := got[m.Spec.ID]; dup {
				tb.Fatalf("query %q level %v: spec %s matched twice", q, level, m.Spec.ID)
			}
			if want := corpus.Score(m.Spec.ID, flat); m.Score != want {
				tb.Fatalf("query %q level %v spec %s: index scores %v, corpus %v", q, level, m.Spec.ID, m.Score, want)
			}
			got[m.Spec.ID] = m
		}
		matching := 0
		for _, s := range specs {
			pol := pols[s.ID]
			h, err := workflow.NewHierarchy(s)
			if err != nil {
				tb.Fatal(err)
			}
			access := pol.AccessView(h, level)
			want := search.Matches(s, phrases, pol, level)
			scanned, scanErr := search.SearchWithAccess(s, phrases, access, pol, level)
			if want != (scanErr == nil) {
				tb.Fatalf("query %q level %v spec %s: Matches=%v but SearchWithAccess err=%v", q, level, s.ID, want, scanErr)
			}
			m, matched := got[s.ID]
			if matched != want {
				tb.Fatalf("query %q level %v spec %s: index matched=%v, oracle %v", q, level, s.ID, matched, want)
			}
			if !want {
				continue
			}
			matching++
			if m.Spec != s || m.Policy != pol {
				tb.Fatalf("query %q spec %s: match does not name the pointers it was built from", q, s.ID)
			}
			evidence := ms.Modules(m)
			if want := eagerEvidence(h, s, pol, phrases, level); !reflect.DeepEqual(evidence, want) {
				tb.Fatalf("query %q level %v spec %s: index evidence %v, eager reference %v", q, level, s.ID, evidence, want)
			}
			wantIDs, _ := search.ScanModuleIDs(s, phrases, pol, level)
			gotIDs := make([][]string, len(evidence))
			for i, ords := range evidence {
				for _, o := range ords {
					gotIDs[i] = append(gotIDs[i], h.ModuleID(o))
				}
				sort.Strings(gotIDs[i])
			}
			if !reflect.DeepEqual(gotIDs, wantIDs) {
				tb.Fatalf("query %q level %v spec %s: index modules %v, scan %v", q, level, s.ID, gotIDs, wantIDs)
			}
			res, err := search.SearchMatched(s, h, search.PhraseNames(phrases), evidence, pol.ModuleNeeds(h), h.Bits(access), level)
			if err != nil {
				tb.Fatalf("query %q level %v spec %s: SearchMatched: %v", q, level, s.ID, err)
			}
			if !reflect.DeepEqual(res.Matches, scanned.Matches) || !reflect.DeepEqual(res.Prefix(), scanned.Prefix()) ||
				res.ZoomedOut != scanned.ZoomedOut || !reflect.DeepEqual(search.MustView(tb, res).ModuleIDs(), search.MustView(tb, scanned).ModuleIDs()) {
				tb.Fatalf("query %q level %v spec %s: handed view %+v / %v differs from scanned %+v / %v",
					q, level, s.ID, res.Matches, res.Prefix().IDs(), scanned.Matches, scanned.Prefix().IDs())
			}
		}
		if len(got) != matching {
			tb.Fatalf("query %q level %v: index matched %d specs, %d of them unknown", q, level, len(got), len(got)-matching)
		}
	}
}

// checkIndexAgainstRebuild holds ix to fresh, a BuildInverted of the
// (spec, policy) pairs ix should hold, for one query at every level: the
// same specs match, under the same (spec, policy) pointers, with
// bit-identical scores and the same evidence, and RankAll agrees.
func checkIndexAgainstRebuild(tb testing.TB, ix, fresh *index.Inverted, q string) {
	tb.Helper()
	phrases := search.ParseQuery(q)
	for _, level := range allLevels {
		got, want := ix.Match(phrases, level), fresh.Match(phrases, level)
		if g, w := got.RankAll(), want.RankAll(); !reflect.DeepEqual(g, w) {
			tb.Fatalf("query %q level %v: index ranks %v, rebuild %v", q, level, g, w)
		}
		sortMatches := func(ms []index.SpecMatch) []index.SpecMatch {
			sort.Slice(ms, func(i, j int) bool { return ms[i].Spec.ID < ms[j].Spec.ID })
			return ms
		}
		g, w := sortMatches(got.Specs), sortMatches(want.Specs)
		if len(g) != len(w) {
			tb.Fatalf("query %q level %v: index matches %d specs, rebuild %d", q, level, len(g), len(w))
		}
		for i := range g {
			if g[i].Spec != w[i].Spec || g[i].Policy != w[i].Policy || g[i].Score != w[i].Score {
				tb.Fatalf("query %q level %v: index matches %s (%p, %p, %v), rebuild %s (%p, %p, %v)", q, level,
					g[i].Spec.ID, g[i].Spec, g[i].Policy, g[i].Score, w[i].Spec.ID, w[i].Spec, w[i].Policy, w[i].Score)
			}
			if ge, we := got.Modules(g[i]), want.Modules(w[i]); !reflect.DeepEqual(ge, we) {
				tb.Fatalf("query %q level %v spec %s: index evidence %v, rebuild %v", q, level, g[i].Spec.ID, ge, we)
			}
		}
	}
}

// moduleTerms is every normalized keyword of every module of s.
func moduleTerms(s *workflow.Spec) []string {
	var terms []string
	for _, wid := range s.WorkflowIDs() {
		for _, m := range s.Workflows[wid].Modules {
			for _, kw := range m.AllKeywords() {
				terms = append(terms, search.Normalize(kw))
			}
		}
	}
	return terms
}

// TestMatchesAgreesWithSearch is the differential test of the search
// predicate: the inverted index (which the repository serves from)
// against search.Matches and the scan (the reference oracle), on random
// specs × random policies × 1- and 2-term phrases × every level. The
// index is built half in bulk and half incrementally, with one spec
// re-registered under a second policy, so BuildInverted and publish are
// both on the hook. A divergence would make paginated totals lie or hand
// the view pass modules the scan would not find.
//
// Then a spec that alone carries a term is removed — the term matches
// nothing at any level and no other spec's score counts it — and added
// back under another policy, so the term returns to the index. After each
// step the index must also equal a fresh build of the specs it holds, on
// the queries and on every one of the spec's own terms.
func TestMatchesAgreesWithSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cfg := workload.SpecConfig{Depth: 3, Fanout: 2, Chain: 5, SkipProb: 0.2}
	for round := int64(0); round < 4; round++ {
		specs, pols := oracleCorpus(t, round*10, round*7+1, 6, cfg)
		victim, solo := specs[1], fmt.Sprintf("solo%dx", round)
		for _, m := range victim.Workflows[victim.Root].Modules {
			m.Keywords = append(m.Keywords, solo)
		}
		ix := index.BuildInverted(specs[:3], pols)
		for _, s := range specs[3:] {
			ix.AddSpec(s, pols[s.ID])
		}
		repol, err := workload.RandomPolicy(specs[0], 1000+round)
		if err != nil {
			t.Fatal(err)
		}
		pols[specs[0].ID] = repol
		ix.AddSpec(specs[0], repol)

		queries := workload.RandomQueries(rng, nil, 24)
		queries = append(queries, "filters", "Risks, query", "query query", "nosuchterm", "query, nosuchterm",
			solo, solo+", query", "query "+solo)
		check := func(step string, specs []*workflow.Spec) {
			t.Helper()
			fresh := index.BuildInverted(specs, pols)
			for _, q := range append(queries, moduleTerms(victim)...) {
				checkIndexAgainstRebuild(t, ix, fresh, q)
			}
			for _, q := range queries {
				checkIndexAgainstOracle(t, ix, specs, pols, q)
			}
			if t.Failed() {
				t.Fatalf("round %d: %s", round, step)
			}
		}
		check("registered", specs)

		survivors := slices.DeleteFunc(slices.Clone(specs), func(s *workflow.Spec) bool { return s == victim })
		ix.RemoveSpec(victim.ID)
		check("removed", survivors)
		for _, level := range allLevels {
			if ms := ix.Match([][]string{{solo}}, level); len(ms.Specs) != 0 || len(ms.RankAll()) != 0 {
				t.Fatalf("round %d level %v: removed spec's term still matches %+v / ranks %v", round, level, ms.Specs, ms.RankAll())
			}
		}

		repol, err = workload.RandomPolicy(victim, 2000+round)
		if err != nil {
			t.Fatal(err)
		}
		pols[victim.ID] = repol
		ix.AddSpec(victim, repol)
		check("re-added", specs)
	}
}

// FuzzIndexMatchAgreesWithOracle is the same property with the corpus
// seeds and the query text chosen by the fuzzer.
func FuzzIndexMatchAgreesWithOracle(f *testing.F) {
	f.Add(int64(0), int64(1), "query")
	f.Add(int64(3), int64(9), "database, disorder risks")
	f.Add(int64(7), int64(2), "filters filter")
	f.Add(int64(11), int64(5), "align, ,query  snp")
	f.Add(int64(-4), int64(0), "")
	cfg := workload.SpecConfig{Depth: 2, Fanout: 1, Chain: 4, SkipProb: 0.3}
	f.Fuzz(func(t *testing.T, specSeed, polSeed int64, q string) {
		specs, pols := oracleCorpus(t, specSeed, polSeed, 3, cfg)
		checkIndexAgainstOracle(t, index.BuildInverted(specs, pols), specs, pols, q)
	})
}

func TestMatchesEmptyQuery(t *testing.T) {
	s := workflow.DiseaseSusceptibility()
	if search.Matches(s, nil, nil, privacy.Owner) {
		t.Fatal("empty query matched")
	}
	if got := index.BuildInverted([]*workflow.Spec{s}, nil).Match(nil, privacy.Owner).Specs; got != nil {
		t.Fatalf("index matched the empty query: %v", got)
	}
}
