package repo

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"provpriv/internal/privacy"
	"provpriv/internal/search"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// Search reads the inverted index first and builds views later, from
// whatever the shard holds by then. These tests enumerate what can slip
// in between — a policy update, a re-registration of the spec id — and
// check that a served hit always describes the incarnation and policy the
// shard holds at view time: no module it hides, no match untrue of it.

// chainSpec builds a one-workflow spec whose i-th module is named
// names[i] (ids M0, M1, …), wired in a chain.
func chainSpec(t testing.TB, id string, names ...string) *workflow.Spec {
	t.Helper()
	b := workflow.NewBuilder(id, id, "W").Workflow("W", "Root").Source("I", "a0")
	prev := "I"
	for i, name := range names {
		mid := fmt.Sprintf("M%d", i)
		in, out := fmt.Sprintf("a%d", i), fmt.Sprintf("a%d", i+1)
		b.Atomic(mid, name, []string{in}, []string{out}).Edge(prev, mid, in)
		prev = mid
	}
	last := fmt.Sprintf("a%d", len(names))
	s, err := b.Sink("O", last).Edge(prev, "O", last).Build()
	if err != nil {
		t.Fatalf("chainSpec %s: %v", id, err)
	}
	return s
}

func hiding(specID string, level privacy.Level, modules ...string) *privacy.Policy {
	pol := privacy.NewPolicy(specID)
	for _, m := range modules {
		pol.ModuleLevels[m] = level
	}
	return pol
}

// parkingCtx is a live context whose Err parks its caller: calls before
// the at-th pass, the at-th closes reached, and from then on every call
// blocks until release is closed.
type parkingCtx struct {
	context.Context
	at               int32
	calls            atomic.Int32
	reached, release chan struct{}
}

func parkAt(at int32) *parkingCtx {
	return &parkingCtx{Context: context.Background(), at: at, reached: make(chan struct{}), release: make(chan struct{})}
}

func (c *parkingCtx) Err() error {
	n := c.calls.Add(1)
	if n == c.at {
		close(c.reached)
	}
	if n >= c.at {
		<-c.release
	}
	return nil
}

// searchAcross runs a public search for "alpha" and performs mutate after
// the search has read the index and before it builds any view. The
// search is parked on what it does between the two anyway: it asks its
// context whether the caller is gone before every view, and not earlier.
func searchAcross(t *testing.T, r *Repository, mutate func()) ([]SearchHit, int) {
	t.Helper()
	ctx := parkAt(1)
	type result struct {
		hits  []SearchHit
		total int
		err   error
	}
	done := make(chan result, 1)
	go func() {
		hits, total, err := r.SearchPageCtx(ctx, "pub", "alpha", SearchOptions{Limit: 10})
		done <- result{hits, total, err}
	}()
	<-ctx.reached
	mutate()
	close(ctx.release)
	res := <-done
	if res.err != nil {
		t.Fatalf("SearchPageCtx: %v", res.err)
	}
	return res.hits, res.total
}

func matchedModules(hits []SearchHit) []string {
	var out []string
	for _, h := range hits {
		for _, m := range h.Result.Matches {
			out = append(out, h.SpecID+"/"+m.ModuleID)
		}
	}
	return out
}

func TestSearchServesWhatTheShardHoldsAtViewTime(t *testing.T) {
	const id = "target"
	for _, tc := range []struct {
		name   string
		mutate func(t *testing.T, r *Repository)
		// total is what the index promised before mutate ran. Where want is
		// nil a search started after mutate would read 0, not 1: that proves
		// the search really straddles the mutation.
		total int
		want  []string
	}{
		{
			name:   "undisturbed",
			mutate: func(*testing.T, *Repository) {},
			total:  1, want: []string{"target/M0", "target/M1"},
		},
		{
			name: "policy tightened over every match",
			mutate: func(t *testing.T, r *Repository) {
				if err := r.UpdatePolicy(id, hiding(id, privacy.Owner, "M0", "M1")); err != nil {
					t.Fatalf("UpdatePolicy: %v", err)
				}
			},
			total: 1, want: nil,
		},
		{
			name: "policy tightened over one match",
			mutate: func(t *testing.T, r *Repository) {
				if err := r.UpdatePolicy(id, hiding(id, privacy.Registered, "M0")); err != nil {
					t.Fatalf("UpdatePolicy: %v", err)
				}
			},
			total: 1, want: []string{"target/M1"},
		},
		{
			// Same module ids, but M0 no longer carries the term and M1 is
			// now hidden: the old incarnation's matches are untrue (M0) or
			// forbidden (M1) for the one the shard holds.
			name: "re-registered, nothing visible matches",
			mutate: func(t *testing.T, r *Repository) {
				if err := r.RemoveSpec(id); err != nil {
					t.Fatalf("RemoveSpec: %v", err)
				}
				s := chainSpec(t, id, "Beta Loader", "Alpha Writer", "Gamma Reader")
				if err := r.AddSpec(s, hiding(id, privacy.Owner, "M1")); err != nil {
					t.Fatalf("re-AddSpec: %v", err)
				}
			},
			total: 1, want: nil,
		},
		{
			name: "re-registered, another module matches",
			mutate: func(t *testing.T, r *Repository) {
				if err := r.RemoveSpec(id); err != nil {
					t.Fatalf("RemoveSpec: %v", err)
				}
				s := chainSpec(t, id, "Beta Loader", "Alpha Writer", "Alpha Reader")
				if err := r.AddSpec(s, hiding(id, privacy.Owner, "M1")); err != nil {
					t.Fatalf("re-AddSpec: %v", err)
				}
			},
			total: 1, want: []string{"target/M2"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := New()
			if err := r.AddSpec(chainSpec(t, id, "Alpha Loader", "Alpha Writer", "Gamma Reader"), nil); err != nil {
				t.Fatalf("AddSpec: %v", err)
			}
			r.AddUser(privacy.User{Name: "pub", Level: privacy.Public, Group: "g-pub"})

			hits, total := searchAcross(t, r, func() { tc.mutate(t, r) })
			if total != tc.total {
				t.Fatalf("total = %d, want %d (the index's count from before the mutation)", total, tc.total)
			}
			got := matchedModules(hits)
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("served matches %v, want %v", got, tc.want)
			}
			// Whatever was served holds of the shard's current state.
			for _, h := range hits {
				s, pol := r.Spec(h.SpecID), r.policy(h.SpecID)
				for _, m := range h.Result.Matches {
					mod, _ := s.FindModule(m.ModuleID)
					if mod == nil || !pol.CanSeeModule(privacy.Public, m.ModuleID) || !carries(mod, [][]string{{"alpha"}}, m.Phrase) {
						t.Fatalf("served match %+v is hidden by or untrue of the current incarnation", m)
					}
				}
			}
		})
	}
}

// policyLog records, per spec id, every policy a writer installs, so a
// reader can name the policies that were in force at some point during
// one of its searches: those from the last install completed before the
// search began through the last one begun before it ended.
type policyLog struct {
	mu   sync.Mutex
	pols []*privacy.Policy
	done int // installs completed
}

func (l *policyLog) begin(p *privacy.Policy) {
	l.mu.Lock()
	l.pols = append(l.pols, p)
	l.mu.Unlock()
}

func (l *policyLog) finish() {
	l.mu.Lock()
	l.done = len(l.pols)
	l.mu.Unlock()
}

// mark is taken before a search (the index of the policy then in force)
// and after it (one past the last policy that may have been installed).
func (l *policyLog) mark() (current, begun int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.done - 1, len(l.pols)
}

// TestSearchChurnNeverExceedsInstalledPolicy races searches at all four
// levels against UpdatePolicy and RemoveSpec+AddSpec of the same ids (run
// under -race). Every hit must be explained by ONE policy that was in
// force at some point during the search: all its matched modules visible
// under it at the searcher's level, and all of them true of the spec.
func TestSearchChurnNeverExceedsInstalledPolicy(t *testing.T) {
	const nSpecs, rounds = 4, 100
	r := New()
	specs := make([]*workflow.Spec, nSpecs)
	logs := make([]*policyLog, nSpecs)
	variant := func(i, k int) *privacy.Policy {
		pol := privacy.NewPolicy(specs[i].ID)
		rng := rand.New(rand.NewSource(int64(i*1000 + k)))
		for _, wid := range specs[i].WorkflowIDs() {
			for _, m := range specs[i].Workflows[wid].Modules {
				if lvl := privacy.Level(rng.Intn(6)); lvl <= privacy.Owner {
					pol.ModuleLevels[m.ID] = lvl
				}
			}
		}
		return pol
	}
	for i := range specs {
		s, err := workload.RandomSpec(workload.SpecConfig{
			Seed: int64(40 + i), ID: fmt.Sprintf("c%d", i), Depth: 2, Fanout: 1, Chain: 5, SkipProb: 0.2,
		})
		if err != nil {
			t.Fatalf("RandomSpec: %v", err)
		}
		specs[i], logs[i] = s, &policyLog{}
		pol := variant(i, 0)
		logs[i].begin(pol)
		if err := r.AddSpec(s, pol); err != nil {
			t.Fatalf("AddSpec: %v", err)
		}
		logs[i].finish()
	}
	levels := []privacy.Level{privacy.Public, privacy.Registered, privacy.Analyst, privacy.Owner}
	for _, l := range levels {
		r.AddUser(privacy.User{Name: l.String(), Level: l, Group: "g-" + l.String()})
	}
	queries := workload.RandomQueries(rand.New(rand.NewSource(5)), nil, 32)

	var writers, readers sync.WaitGroup
	var stop atomic.Bool
	var checked atomic.Int64
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for k := 1; k <= rounds; k++ {
				i := w*2 + k%2
				pol := variant(i, k)
				logs[i].begin(pol)
				if k%3 == 0 {
					if err := r.RemoveSpec(specs[i].ID); err != nil {
						t.Errorf("RemoveSpec: %v", err)
						return
					}
					if err := r.AddSpec(specs[i], pol); err != nil {
						t.Errorf("AddSpec: %v", err)
						return
					}
				} else if err := r.UpdatePolicy(specs[i].ID, pol); err != nil {
					t.Errorf("UpdatePolicy: %v", err)
					return
				}
				logs[i].finish()
			}
		}(w)
	}
	for _, level := range levels {
		readers.Add(1)
		go func(level privacy.Level) {
			defer readers.Done()
			current := make([]int, nSpecs)
			for n := 0; !stop.Load(); n++ {
				q := queries[n%len(queries)]
				for i, l := range logs {
					current[i], _ = l.mark()
				}
				hits, _, err := r.SearchPageCtx(context.Background(), level.String(), q, SearchOptions{Limit: 10})
				if err != nil {
					t.Errorf("SearchPageCtx: %v", err)
					return
				}
				phrases := search.ParseQuery(q)
				for _, h := range hits {
					var i int
					if _, err := fmt.Sscanf(h.SpecID, "c%d", &i); err != nil {
						t.Errorf("hit on unknown spec %q", h.SpecID)
						return
					}
					_, begun := logs[i].mark()
					logs[i].mu.Lock()
					inForce := logs[i].pols[current[i]:begun]
					logs[i].mu.Unlock()
					explained := false
					for _, pol := range inForce {
						ok := true
						for _, m := range h.Result.Matches {
							ok = ok && pol.CanSeeModule(level, m.ModuleID)
						}
						explained = explained || ok
					}
					if !explained {
						t.Errorf("level %v query %q: hit on %s shows %+v, visible together under none of the %d policies in force during the search",
							level, q, h.SpecID, h.Result.Matches, len(inForce))
						return
					}
					for _, m := range h.Result.Matches {
						mod, _ := specs[i].FindModule(m.ModuleID)
						if mod == nil || !carries(mod, phrases, m.Phrase) {
							t.Errorf("level %v query %q: match %+v is untrue of %s", level, q, m, h.SpecID)
							return
						}
					}
					checked.Add(1)
				}
			}
		}(level)
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	if checked.Load() == 0 && !t.Failed() {
		t.Fatal("no search returned a hit: the churn checked nothing")
	}
}

// carries reports whether the module carries every term of the query
// phrase that prints as name.
func carries(m *workflow.Module, phrases [][]string, name string) bool {
	terms := make(map[string]bool)
	for _, kw := range m.AllKeywords() {
		terms[search.Normalize(kw)] = true
	}
	for _, phrase := range phrases {
		if fmt.Sprint(phrase) != fmt.Sprint(search.Tokenize(name)) {
			continue
		}
		for _, term := range phrase {
			if !terms[term] {
				return false
			}
		}
		return true
	}
	return false
}

// TestSearchAnswerDependsOnLevelNotGroup: a group is not an access level.
// Two users of one group — or of none, which is the group "" — at
// different levels must each get their own level's answer: for every
// ordered pair of levels, what the second user is served right after the
// first asked the same question is what a scan of every spec under its
// policy finds at the second's level.
func TestSearchAnswerDependsOnLevelNotGroup(t *testing.T) {
	r := New()
	specs := make([]*workflow.Spec, 6)
	hiers := make([]*workflow.Hierarchy, len(specs))
	for i := range specs {
		s, err := workload.RandomSpec(workload.SpecConfig{Seed: int64(i + 1), ID: fmt.Sprintf("s%d", i), Depth: 3, Fanout: 2, Chain: 4, SkipProb: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		pol, err := workload.RandomPolicy(s, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.AddSpec(s, pol); err != nil {
			t.Fatal(err)
		}
		specs[i] = s
		if hiers[i], err = workflow.NewHierarchy(s); err != nil {
			t.Fatal(err)
		}
	}
	scan := func(q string, level privacy.Level) map[string]*search.Result {
		want := make(map[string]*search.Result)
		for i, s := range specs {
			pol := r.policy(s.ID)
			if res, err := search.SearchWithAccess(s, search.ParseQuery(q), pol.AccessView(hiers[i], level), pol, level); err == nil {
				want[s.ID] = res
			}
		}
		return want
	}
	ask := func(user, q string) map[string]*search.Result {
		t.Helper()
		hits, total, err := r.SearchPageCtx(context.Background(), user, q, SearchOptions{})
		if err != nil {
			t.Fatalf("%s searching %q: %v", user, q, err)
		}
		got := make(map[string]*search.Result, len(hits))
		for _, h := range hits {
			got[h.SpecID] = h.Result
		}
		if total != len(hits) || len(got) != len(hits) {
			t.Fatalf("%s searching %q: total %d, %d hits on %d specs", user, q, total, len(hits), len(got))
		}
		return got
	}
	for _, group := range []string{"", "team"} {
		for _, first := range allLevels {
			for _, second := range allLevels {
				if first == second {
					continue
				}
				r.AddUser(privacy.User{Name: "first", Level: first, Group: group})
				r.AddUser(privacy.User{Name: "second", Level: second, Group: group})
				for _, q := range workload.DefaultVocab()[:40] {
					ask("first", q)
					if got, want := ask("second", q), scan(q, second); !reflect.DeepEqual(got, want) {
						t.Fatalf("group %q, %v after %v, query %q: served %d hits, a scan at the level finds %d",
							group, second, first, q, len(got), len(want))
					}
				}
			}
		}
	}
}
