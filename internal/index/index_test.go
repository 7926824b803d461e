package index

import (
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"provpriv/internal/privacy"
	"provpriv/internal/search"
	"provpriv/internal/workflow"
)

func diseaseSetup(t *testing.T) ([]*workflow.Spec, map[string]*privacy.Policy) {
	t.Helper()
	s := workflow.DiseaseSusceptibility()
	pol := privacy.NewPolicy(s.ID)
	pol.ModuleLevels["M6"] = privacy.Owner // Query OMIM proprietary
	if err := pol.Validate(s); err != nil {
		t.Fatalf("policy: %v", err)
	}
	return []*workflow.Spec{s}, map[string]*privacy.Policy{s.ID: pol}
}

func TestInvertedLookupFiltersByLevel(t *testing.T) {
	specs, pols := diseaseSetup(t)
	ix := BuildInverted(specs, pols)
	// "omim" appears only on M6, which requires Owner.
	if got := ix.Lookup("omim", privacy.Public); len(got) != 0 {
		t.Fatalf("public lookup(omim) = %v", got)
	}
	got := ix.Lookup("omim", privacy.Owner)
	if len(got) != 1 || got[0].ModuleID != "M6" || got[0].Workflow != "W4" {
		t.Fatalf("owner lookup(omim) = %v", got)
	}
}

func TestInvertedLookupNormalizes(t *testing.T) {
	specs, pols := diseaseSetup(t)
	ix := BuildInverted(specs, pols)
	// "Risks" should hit modules with keyword "risk".
	if got := ix.Lookup("Risks", privacy.Public); len(got) == 0 {
		t.Fatal("normalized lookup failed")
	}
}

// TestMatchAnswersThePredicate covers Match on the paper's fixture: a
// phrase is matched only by one module carrying all its terms, a module
// above the level is neither a match nor evidence, and every phrase must
// be matched. Evidence is the hierarchy's module ordinals. (The
// differential test against the search.Matches oracle lives in
// internal/search, which this package cannot import tests from.)
func TestMatchAnswersThePredicate(t *testing.T) {
	specs, pols := diseaseSetup(t)
	ix := BuildInverted(specs, pols)
	s, pol := specs[0], pols[specs[0].ID]
	h, err := workflow.NewHierarchy(s)
	if err != nil {
		t.Fatal(err)
	}

	ms := ix.Match([][]string{{"query", "omim"}, {"database"}}, privacy.Owner)
	got := ms.Specs
	if len(got) != 1 || got[0].Spec != s || got[0].Policy != pol {
		t.Fatalf("owner match = %+v", got)
	}
	ev := ms.Modules(got[0])
	if len(ev) != 2 || !slices.Equal(ev[0], []int32{h.Place("M6").Ord}) {
		t.Fatalf("phrase 0 evidence = %v, want M6's ordinal %d", ev, h.Place("M6").Ord)
	}
	if len(ev[1]) == 0 {
		t.Fatal("phrase 1 has no evidence")
	}
	for _, o := range ev[1] {
		if !search.ModuleTerms(h.Placed(o).Module)["database"] {
			t.Fatalf("phrase 1 evidence names %s, which does not carry it", h.ModuleID(o))
		}
	}
	// M6 is Owner-only: below that the first phrase has no visible module.
	if got := ix.Match([][]string{{"query", "omim"}, {"database"}}, privacy.Analyst).Specs; got != nil {
		t.Fatalf("analyst match = %+v", got)
	}
	// "query" and "pubmed" occur in the spec, but the hidden M6 must not
	// lend its "query" to a phrase, and no single module carries both
	// "omim" and "pubmed".
	if got := ix.Match([][]string{{"omim", "pubmed"}}, privacy.Owner).Specs; got != nil {
		t.Fatalf("cross-module phrase matched: %+v", got)
	}
	for _, q := range [][][]string{nil, {{}}, {{"query"}, {}}, {{"nosuchterm"}}} {
		if got := ix.Match(q, privacy.Owner).Specs; got != nil {
			t.Fatalf("Match(%v) = %+v", q, got)
		}
	}
}

// TestModulesAnswersEachSpecInTurn: one Matches answers Modules for two
// specs in turn, and back. Its storage is reused from call to call, so
// each answer must be the spec's own — the reference scan's modules at
// the level, mapped through the spec's hierarchy — not the previous one's
// tail or a mix of both.
func TestModulesAnswersEachSpecInTurn(t *testing.T) {
	specs, pols := diseaseSetup(t)
	// The twin leaves Query OMIM public: at public it answers two modules
	// for "query", the fixture one.
	twin := workflow.DiseaseSusceptibility()
	twin.ID = "twin"
	specs, pols[twin.ID] = append(specs, twin), privacy.NewPolicy(twin.ID)
	ix := BuildInverted(specs, pols)
	phrases := [][]string{{"query"}}
	for _, level := range []privacy.Level{privacy.Public, privacy.Owner} {
		ms := ix.Match(phrases, level)
		if len(ms.Specs) != 2 {
			t.Fatalf("level %v: %d specs match %v, want both", level, len(ms.Specs), phrases)
		}
		for _, i := range []int{0, 1, 0, 1} {
			m := ms.Specs[i]
			want := referenceOrdinals(t, m.Spec, pols[m.Spec.ID], phrases, level)
			if got := ms.Modules(m); !reflect.DeepEqual(got, want) {
				t.Fatalf("level %v spec %s: Modules = %v, want %v", level, m.Spec.ID, got, want)
			}
		}
	}
}

// referenceOrdinals is the evidence Modules must answer for s: per phrase,
// naiveLookup's postings of the modules carrying all its terms, in
// canonical order, as the hierarchy's module ordinals.
func referenceOrdinals(t *testing.T, s *workflow.Spec, pol *privacy.Policy, phrases [][]string, level privacy.Level) [][]int32 {
	t.Helper()
	h, err := workflow.NewHierarchy(s)
	if err != nil {
		t.Fatal(err)
	}
	one := []*workflow.Spec{s}
	pols := map[string]*privacy.Policy{s.ID: pol}
	ev := make([][]int32, len(phrases))
	for i, phrase := range phrases {
		for _, p := range naiveLookup(one, pols, phrase[0], level) {
			if terms := search.ModuleTerms(h.Place(p.ModuleID).Module); !slices.ContainsFunc(phrase, func(t string) bool { return !terms[t] }) {
				ev[i] = append(ev[i], h.Place(p.ModuleID).Ord)
			}
		}
	}
	return ev
}

func TestInvertedMatchesNaive(t *testing.T) {
	specs, pols := diseaseSetup(t)
	ix := BuildInverted(specs, pols)
	for _, term := range []string{"database", "omim", "query", "private", "nonexistent"} {
		for _, lvl := range []privacy.Level{privacy.Public, privacy.Analyst, privacy.Owner} {
			fast := ix.Lookup(term, lvl)
			slow := naiveLookup(specs, pols, term, lvl)
			if len(fast) != len(slow) {
				t.Fatalf("term %q level %v: index %d vs naive %d", term, lvl, len(fast), len(slow))
			}
			for i := range fast {
				if fast[i] != slow[i] {
					t.Fatalf("term %q level %v: posting %d differs: %v vs %v", term, lvl, i, fast[i], slow[i])
				}
			}
		}
	}
}

func TestInvertedTermsAndPostings(t *testing.T) {
	specs, pols := diseaseSetup(t)
	ix := BuildInverted(specs, pols)
	if len(ix.Terms()) == 0 || ix.Postings() == 0 {
		t.Fatal("empty index for non-empty spec")
	}
}

func TestAddSpecIncrementalMatchesRebuild(t *testing.T) {
	specs, pols := diseaseSetup(t)
	s2, err := workflowRandom(7)
	if err != nil {
		t.Fatalf("random spec: %v", err)
	}
	// Build in two orders and compare with a full rebuild.
	inc := BuildInverted(specs, pols)
	inc.AddSpec(s2, nil)
	all := BuildInverted(append(append([]*workflow.Spec{}, specs...), s2), pols)
	if len(inc.Terms()) != len(all.Terms()) {
		t.Fatalf("terms: %d vs %d", len(inc.Terms()), len(all.Terms()))
	}
	for _, term := range all.Terms() {
		for _, lvl := range []privacy.Level{privacy.Public, privacy.Owner} {
			a := inc.Lookup(term, lvl)
			b := all.Lookup(term, lvl)
			if len(a) != len(b) {
				t.Fatalf("term %q level %v: %d vs %d", term, lvl, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("term %q level %v posting %d: %v vs %v", term, lvl, i, a[i], b[i])
				}
			}
		}
	}
}

func TestRemoveSpec(t *testing.T) {
	specs, pols := diseaseSetup(t)
	s2, _ := workflowRandom(9)
	ix := BuildInverted(append(append([]*workflow.Spec{}, specs...), s2), pols)
	ix.RemoveSpec(s2.ID)
	want := BuildInverted(specs, pols)
	if len(ix.Terms()) != len(want.Terms()) {
		t.Fatalf("terms after remove: %d vs %d", len(ix.Terms()), len(want.Terms()))
	}
	for _, term := range want.Terms() {
		a := ix.Lookup(term, privacy.Owner)
		b := want.Lookup(term, privacy.Owner)
		if len(a) != len(b) {
			t.Fatalf("term %q: %d vs %d", term, len(a), len(b))
		}
	}
	// Removing a non-registered spec is a no-op.
	ix.RemoveSpec("ghost")
}

// TestLookupDuringChurn races the lock-free reads (Lookup, Match,
// Segments) against AddSpec / RemoveSpec churn (run under -race). Every
// observed posting list must be internally consistent: sorted in
// canonical order and never containing a spec whose RemoveSpec already
// returned.
func TestLookupDuringChurn(t *testing.T) {
	specs, pols := diseaseSetup(t)
	ix := BuildInverted(specs, pols)
	var removed sync.Map // spec id -> true once RemoveSpec returned
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 50; i++ {
			s, err := workflowRandom(int64(200 + i))
			if err != nil {
				t.Errorf("random spec: %v", err)
				return
			}
			ix.AddSpec(s, nil)
			ix.RemoveSpec(s.ID)
			removed.Store(s.ID, true)
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				// Segments and Match read the same snapshots as Lookup: the
				// stable spec is always indexed, always matches, and its
				// evidence always names the pointers it was built from.
				if n := ix.Segments(); n < 1 || n > 2 {
					t.Errorf("Segments = %d mid-churn", n)
					return
				}
				stable := false
				ms := ix.Match([][]string{{"database"}}, privacy.Owner)
				for _, m := range ms.Specs {
					if m.Spec == specs[0] {
						stable = m.Policy == pols[m.Spec.ID] && len(ms.Modules(m)[0]) > 0
					}
				}
				if !stable {
					t.Error("stable spec lost its match mid-churn")
					return
				}
				for _, term := range []string{"query", "database", "filter"} {
					ps := ix.Lookup(term, privacy.Owner)
					for i, p := range ps {
						if i > 0 && postingCmp(p, ps[i-1]) < 0 {
							t.Errorf("postings out of order for %q", term)
							return
						}
						if _, gone := removed.Load(p.SpecID); gone {
							// Only a bug if the removal completed before
							// this Lookup started; at worst we raced the
							// store above, so re-check once after the
							// snapshot that must reflect the removal.
							if again := ix.Lookup(term, privacy.Owner); containsSpec(again, p.SpecID) {
								if _, still := removed.Load(p.SpecID); still {
									t.Errorf("stale posting for removed spec %s", p.SpecID)
									return
								}
							}
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

func containsSpec(ps []Posting, specID string) bool {
	for _, p := range ps {
		if p.SpecID == specID {
			return true
		}
	}
	return false
}

// TestRemoveSpecImmediatelyInvisible is the sequential half of the
// stale-postings guarantee: once RemoveSpec returns, no term lookup at
// any level may serve the spec's postings.
func TestRemoveSpecImmediatelyInvisible(t *testing.T) {
	specs, pols := diseaseSetup(t)
	ix := BuildInverted(specs, pols)
	s2, err := workflowRandom(31)
	if err != nil {
		t.Fatalf("random spec: %v", err)
	}
	ix.AddSpec(s2, nil)
	terms := ix.Terms()
	ix.RemoveSpec(s2.ID)
	for _, term := range terms {
		if containsSpec(ix.Lookup(term, privacy.Owner), s2.ID) {
			t.Fatalf("term %q still serves removed spec", term)
		}
	}
}

// TestSegmentsAndSwaps covers the churn counters the metrics endpoint
// exports.
func TestSegmentsAndSwaps(t *testing.T) {
	specs, pols := diseaseSetup(t)
	ix := BuildInverted(specs, pols)
	if got := ix.Segments(); got != 1 {
		t.Fatalf("Segments = %d", got)
	}
	if got := ix.Swaps(); got != 0 {
		t.Fatalf("Swaps after build = %d", got)
	}
	s2, _ := workflowRandom(17)
	ix.AddSpec(s2, nil)
	if got := ix.Segments(); got != 2 {
		t.Fatalf("Segments after add = %d", got)
	}
	ix.RemoveSpec(s2.ID)
	if got, want := ix.Swaps(), int64(2); got != want {
		t.Fatalf("Swaps = %d, want %d", got, want)
	}
	if got := ix.Segments(); got != 1 {
		t.Fatalf("Segments after remove = %d", got)
	}
	// Removing an unknown spec swaps nothing.
	ix.RemoveSpec("ghost")
	if got := ix.Swaps(); got != 2 {
		t.Fatalf("no-op remove swapped: %d", got)
	}
}

// TestTermIDOutlivesItsCarriers: a term keeps its id while no spec
// carries it, so removing its only carrier drops it from the snapshot, and
// adding the carrier back under another policy numbers nothing new.
func TestTermIDOutlivesItsCarriers(t *testing.T) {
	specs, pols := diseaseSetup(t)
	ix := BuildInverted(specs, pols)
	before := make(map[string]bool)
	for _, term := range ix.Terms() {
		before[term] = true
	}
	s2, err := workflowRandom(5)
	if err != nil {
		t.Fatalf("random spec: %v", err)
	}
	ix.AddSpec(s2, nil)
	var solo string
	for _, term := range ix.Terms() {
		if !before[term] {
			solo = term
			break
		}
	}
	if solo == "" {
		t.Fatal("the added spec carries no term of its own")
	}
	id, numbered := ix.snap.Load().terms[solo].id, len(ix.names)
	ix.RemoveSpec(s2.ID)
	if _, held := ix.snap.Load().terms[solo]; held {
		t.Fatalf("term %q outlived its only carrier in the snapshot", solo)
	}
	pol := privacy.NewPolicy(s2.ID)
	pol.ModuleLevels["A1"] = privacy.Analyst
	ix.AddSpec(s2, pol)
	if got := ix.snap.Load().terms[solo].id; got != id || len(ix.names) != numbered {
		t.Fatalf("term %q came back as id %d of %d, was %d of %d", solo, got, len(ix.names), id, numbered)
	}
	if got := ix.Lookup(solo, privacy.Owner); len(got) == 0 {
		t.Fatalf("term %q not served after the re-add", solo)
	}
}

// TestAddSpecReplacesSegment: re-adding a spec (e.g. after a policy
// change) replaces its postings instead of duplicating them.
func TestAddSpecReplacesSegment(t *testing.T) {
	specs, pols := diseaseSetup(t)
	ix := BuildInverted(specs, pols)
	before := ix.Postings()
	ix.AddSpec(specs[0], pols[specs[0].ID])
	if got := ix.Postings(); got != before {
		t.Fatalf("re-add changed postings: %d vs %d", got, before)
	}
	// Re-add with a different policy level reclassifies the postings.
	pol2 := privacy.NewPolicy(specs[0].ID)
	ix.AddSpec(specs[0], pol2) // everything public now
	if got := ix.Lookup("omim", privacy.Public); len(got) != 1 {
		t.Fatalf("reclassified posting not public: %v", got)
	}
}

// workflowRandom builds a small spec for index tests (kept here to
// avoid an import cycle with workload — hand-rolled, deterministic).
func workflowRandom(seed int64) (*workflow.Spec, error) {
	return workflow.NewBuilder(
		"rnd", "Random", "R").
		Workflow("R", "Root").
		Source("I", "x").
		Atomic("A1", "Parse Genome Data", []string{"x"}, []string{"y"}).
		Atomic("A2", "Align Sequence Reads", []string{"y"}, []string{"z"}).
		Sink("O", "z").
		Edge("I", "A1", "x").
		Edge("A1", "A2", "y").
		Edge("A2", "O", "z").
		Build()
}

// Terms returns all indexed terms, sorted.
func (ix *Inverted) Terms() []string {
	snap := ix.snap.Load()
	ts := make([]string, 0, len(snap.terms))
	for t := range snap.terms {
		ts = append(ts, t)
	}
	sort.Strings(ts)
	return ts
}

// naiveLookup is the reference Lookup is held to: scan every module of
// every spec, re-checking the policy each time. Root benchmark B4
// (BenchmarkIndexVsFilter) times its own copy against the index.
func naiveLookup(specs []*workflow.Spec, policies map[string]*privacy.Policy, term string, level privacy.Level) []Posting {
	want := search.Normalize(term)
	var out []Posting
	for _, s := range specs {
		pol := policies[s.ID]
		for _, wid := range s.WorkflowIDs() {
			for _, m := range s.Workflows[wid].Modules {
				if pol != nil && !pol.CanSeeModule(level, m.ID) {
					continue
				}
				for _, kw := range m.AllKeywords() {
					if search.Normalize(kw) == want {
						minLevel := privacy.Public
						if pol != nil {
							minLevel = pol.ModuleLevels[m.ID]
						}
						out = append(out, Posting{SpecID: s.ID, ModuleID: m.ID, Workflow: wid, MinLevel: minLevel})
						break
					}
				}
			}
		}
	}
	slices.SortFunc(out, postingCmp)
	return out
}
