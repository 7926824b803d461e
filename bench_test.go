// Benchmark harness for the experiments B3–B6, B8 and B11–B17. The
// CIDR 2011 paper is a vision paper with no measured tables; each bench
// quantifies a mechanism or trade-off the paper asserts qualitatively,
// and its section comment states the claim next to the numbers it
// produces. Custom metrics are attached via b.ReportMetric, so
// `go test -bench=. -benchmem` prints the full rows.
package provpriv

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"provpriv/internal/datapriv"
	"provpriv/internal/exec"
	"provpriv/internal/graph"
	"provpriv/internal/index"
	"provpriv/internal/privacy"
	"provpriv/internal/query"
	"provpriv/internal/rank"
	"provpriv/internal/repo"
	"provpriv/internal/search"
	"provpriv/internal/server"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// ---------------------------------------------------------------------------
// B3 — Privacy-aware query evaluation overhead vs oblivious evaluation.
// Paper claim (Sec. 4): "the information must be hidden on-the-fly,
// which usually leads to processing overhead."

func diseaseFixture(b *testing.B) (*workflow.Spec, *exec.Execution, *privacy.Policy) {
	b.Helper()
	spec := workflow.DiseaseSusceptibility()
	e, err := exec.NewRunner(spec, nil).Run("E1", map[string]exec.Value{
		"snps": "rs1", "ethnicity": "eth1", "lifestyle": "active",
		"family_history": "fh1", "symptoms": "none",
	})
	if err != nil {
		b.Fatal(err)
	}
	pol := privacy.NewPolicy(spec.ID)
	pol.DataLevels["snps"] = privacy.Owner
	pol.ViewGrants[privacy.Registered] = []string{"W2", "W3", "W4"}
	return spec, e, pol
}

func BenchmarkQueryPrivacyOverhead(b *testing.B) {
	spec, e, pol := diseaseFixture(b)
	ev := query.NewEvaluator(spec)
	q, err := query.Parse(`MATCH a = "expand snp", b = "query omim" WHERE a ~> b RETURN provenance(b)`)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("oblivious", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ev.Evaluate(q, e); err != nil {
				b.Fatal(err)
			}
		}
	})
	// privacy-aware pays, per query, what a cold read pays before the
	// match: collapse to the access view, mask, prepare.
	h, err := workflow.NewHierarchy(spec)
	if err != nil {
		b.Fatal(err)
	}
	prefix := pol.AccessView(h, privacy.Registered)
	zoomed := len(prefix) < h.Size()
	masker := datapriv.NewMasker(pol, nil)
	b.Run("privacy-aware", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			collapsed, err := exec.Collapse(e, spec, prefix)
			if err != nil {
				b.Fatal(err)
			}
			masked, _ := masker.MaskView(e, collapsed, privacy.Registered)
			pe, err := query.PrepareExec(masked)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ev.EvaluateOn(q, pe, pol, privacy.Registered, zoomed); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// B4 — Privacy-classified index vs per-query policy filtering.
// Paper claim (Sec. 4): indexes must serve "different user views";
// one classified index should beat re-checking policies per query.

func synthRepoFixture(b testing.TB, nSpecs int) ([]*workflow.Spec, map[string]*privacy.Policy) {
	b.Helper()
	var specs []*workflow.Spec
	pols := make(map[string]*privacy.Policy)
	for i := 0; i < nSpecs; i++ {
		s, err := workload.RandomSpec(workload.SpecConfig{
			Seed: int64(i), ID: fmt.Sprintf("s%d", i), Depth: 3, Fanout: 2, Chain: 4, SkipProb: 0.2,
		})
		if err != nil {
			b.Fatal(err)
		}
		pol := privacy.NewPolicy(s.ID)
		// Mark every third module Analyst-only.
		k := 0
		for _, wid := range s.WorkflowIDs() {
			for _, m := range s.Workflows[wid].Modules {
				if m.Kind == workflow.Atomic && k%3 == 0 {
					pol.ModuleLevels[m.ID] = privacy.Analyst
				}
				k++
			}
		}
		specs = append(specs, s)
		pols[s.ID] = pol
	}
	return specs, pols
}

func BenchmarkIndexVsFilter(b *testing.B) {
	specs, pols := synthRepoFixture(b, 30)
	ix := index.BuildInverted(specs, pols)
	terms := []string{"query", "database", "snp", "filter", "merge"}
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, t := range terms {
				ix.Lookup(t, privacy.Registered)
			}
		}
	})
	b.Run("naive-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, t := range terms {
				naiveLookup(specs, pols, t, privacy.Registered)
			}
		}
	})
}

// naiveLookup is the no-index baseline: scan every module of every spec on
// each query, re-checking the policy each time, and answer what
// index.Inverted.Lookup answers (internal/index's tests hold the two
// equal).
func naiveLookup(specs []*workflow.Spec, policies map[string]*privacy.Policy, term string, level privacy.Level) []index.Posting {
	want := search.Normalize(term)
	var out []index.Posting
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
						out = append(out, index.Posting{SpecID: s.ID, ModuleID: m.ID, Workflow: wid, MinLevel: minLevel})
						break
					}
				}
			}
		}
	}
	slices.SortFunc(out, func(a, b index.Posting) int {
		return cmp.Or(cmp.Compare(a.MinLevel, b.MinLevel), strings.Compare(a.SpecID, b.SpecID), strings.Compare(a.ModuleID, b.ModuleID))
	})
	return out
}

// ---------------------------------------------------------------------------
// B5 — Zoom-out cost: building coarser execution views level by level.
// Paper claim (Sec. 4): "each zoom-out may involve a disk access" —
// i.e. repeated view construction is the cost driver; we measure the
// in-memory collapse cost per hierarchy depth.

func BenchmarkZoomOut(b *testing.B) {
	for _, depth := range []int{2, 3, 4} {
		s, err := workload.RandomSpec(workload.SpecConfig{
			Seed: 5, ID: fmt.Sprintf("zo-%d", depth), Depth: depth, Fanout: 2, Chain: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		e, err := exec.NewRunner(s, nil).Run("E", workload.RandomInputs(s, 1))
		if err != nil {
			b.Fatal(err)
		}
		h, err := workflow.NewHierarchy(s)
		if err != nil {
			b.Fatal(err)
		}
		// Zoom-out sequence: full prefix shrinking to {root}.
		var prefixes []workflow.Prefix
		cur := workflow.FullPrefix(h)
		prefixes = append(prefixes, cur)
		all := h.All()
		for i := len(all) - 1; i > 0; i-- {
			next := make(workflow.Prefix)
			for k := range cur {
				next[k] = true
			}
			delete(next, all[i])
			// Keep it a valid prefix (children first in reverse-BFS).
			if next.Validate(h) == nil {
				prefixes = append(prefixes, next)
				cur = next
			}
		}
		b.Run(fmt.Sprintf("depth=%d/levels=%d", depth, len(prefixes)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, p := range prefixes {
					if _, err := exec.Collapse(e, s, p); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(len(e.Nodes)), "exec-nodes")
		})
	}
}

// ---------------------------------------------------------------------------
// B6 — Ranking leakage: exact scores invert to hidden term counts;
// bucketing (the served defence, /search?buckets=) trades leakage for
// rank quality. Randomized scores are not measured: the paper rejects
// them (Sec. 5) because a query would not rank the same twice.
// Paper claim (Sec. 4): "a user might be able to infer the range of
// value occurrences in a result" from rankings.

func BenchmarkRankingLeakage(b *testing.B) {
	full := rank.NewCorpus()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		var terms []string
		for j := 0; j < 1+rng.Intn(20); j++ {
			terms = append(terms, "database")
		}
		terms = append(terms, fmt.Sprintf("filler%d", i))
		full.Add(fmt.Sprintf("doc%02d", i), terms)
	}
	queryTerms := []string{"database"}
	for _, buckets := range []int{0, 8, 3} {
		name := "exact"
		if buckets > 0 {
			name = fmt.Sprintf("buckets=%d", buckets)
		}
		b.Run(name, func(b *testing.B) {
			var published []rank.Ranked
			for i := 0; i < b.N; i++ {
				published = full.Rank(queryTerms)
				if buckets > 0 {
					published = rank.Bucketize(published, buckets)
				}
			}
			rep := rank.FrequencyAttack(full, published, "database")
			exactRank := full.Rank(queryTerms)
			b.ReportMetric(float64(rep.ExactHits)/float64(rep.Docs), "attack-recovery")
			b.ReportMetric(rank.KendallTau(exactRank, published), "kendall-tau")
		})
	}
}

// ---------------------------------------------------------------------------
// B8 — Access views: on-the-fly view construction cost by prefix size
// (the alternative to materializing one repository per level), plus the
// reachability-index ablation (closure vs per-query search).

func BenchmarkViewConstruction(b *testing.B) {
	s := workflow.DiseaseSusceptibility()
	h, _ := workflow.NewHierarchy(s)
	for _, p := range workflow.Prefixes(h) {
		name := fmt.Sprintf("prefix=%d", len(p))
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := workflow.Expand(s, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReachabilityAblation(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	g := workload.LayeredDAG(rng, 20, 10, 3)
	queries := make([][2]graph.NodeID, 200)
	for i := range queries {
		queries[i] = [2]graph.NodeID{graph.NodeID(rng.Intn(g.N())), graph.NodeID(rng.Intn(g.N()))}
	}
	b.Run("closure-build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := graph.NewClosure(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	cl, _ := graph.NewClosure(g)
	b.Run("closure-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			cl.Reach(q[0], q[1])
		}
	})
	b.Run("dfs-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			g.Reachable(q[0], q[1])
		}
	})
}

// BenchmarkReaches is Repository.Reaches on the paper's spec through each
// of its paths: full, a level that sees the whole hierarchy and is answered
// from the shard's closure; view, a level that does not and is answered by
// expanding its access view.
func BenchmarkReaches(b *testing.B) {
	spec, _, pol := diseaseFixture(b)
	r := repo.New()
	if err := r.AddSpec(spec, pol); err != nil {
		b.Fatal(err)
	}
	for _, path := range []struct {
		name  string
		level privacy.Level
	}{{"full", privacy.Owner}, {"view", privacy.Public}} {
		r.AddUser(privacy.User{Name: path.name, Level: path.level})
		b.Run(path.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ok, err := r.Reaches(path.name, spec.ID, "M3", "M15"); err != nil || !ok {
					b.Fatalf("Reaches = %v, %v", ok, err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// End-to-end repository search bench (supports B3/B4 at system level).

func BenchmarkRepositorySearch(b *testing.B) {
	r := repo.New()
	specs, pols := synthRepoFixture(b, 10)
	for _, s := range specs {
		if err := r.AddSpec(s, pols[s.ID]); err != nil {
			b.Fatal(err)
		}
	}
	r.AddUser(privacy.User{Name: "u", Level: privacy.Registered, Group: "g"})
	rng := rand.New(rand.NewSource(1))
	queries := workload.RandomQueries(rng, nil, 20)
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = r.Search("u", queries[i%len(queries)], repo.SearchOptions{})
		}
	})
}

// ---------------------------------------------------------------------------
// B11 — Concurrent sharded serving: search throughput of one client per
// core against one client. The paper's premise is a shared repository
// "searched and queried by many users"; this bench quantifies what
// per-spec sharding and the lock-free index snapshot buy under parallel
// load. A search decides its hits inline, on the caller's goroutine (no
// worker pool is involved), so all parallelism here is the clients'.
// "serial" drives one client; parallel-clients drives one per core. On a
// 4+ core machine it should show ≥2x the serial throughput (ns/op ≤ 1/2).

func parallelSearchFixture(b *testing.B, nSpecs int) (*repo.Repository, []string) {
	b.Helper()
	r := repo.New()
	specs, pols := synthRepoFixture(b, nSpecs)
	for _, s := range specs {
		if err := r.AddSpec(s, pols[s.ID]); err != nil {
			b.Fatal(err)
		}
	}
	r.AddUser(privacy.User{Name: "u", Level: privacy.Registered, Group: "g"})
	rng := rand.New(rand.NewSource(1))
	return r, workload.RandomQueries(rng, nil, 64)
}

func BenchmarkSearchParallel(b *testing.B) {
	r, queries := parallelSearchFixture(b, 12)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := r.Search("u", queries[i%len(queries)], repo.SearchOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel-clients", func(b *testing.B) {
		var next atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			j := int(next.Add(1)) * 17
			for pb.Next() {
				if _, err := r.Search("u", queries[j%len(queries)], repo.SearchOptions{}); err != nil {
					b.Fatal(err)
				}
				j++
			}
		})
	})
}

var fourLevels = []privacy.Level{privacy.Public, privacy.Registered, privacy.Analyst, privacy.Owner}

// searchMissFixture is the repository and the query stream
// BenchmarkSearchMiss and TestSearchHitAllocBudget share: 48 synthetic
// specs, one user per access level (named after it), 256 random queries.
func searchMissFixture(tb testing.TB) (*repo.Repository, []string) {
	tb.Helper()
	r := repo.New()
	specs, pols := synthRepoFixture(tb, 48)
	for _, s := range specs {
		if err := r.AddSpec(s, pols[s.ID]); err != nil {
			tb.Fatal(err)
		}
	}
	for _, level := range fourLevels {
		r.AddUser(privacy.User{Name: level.String(), Level: level, Group: level.String()})
	}
	return r, workload.RandomQueries(rand.New(rand.NewSource(1)), nil, 256)
}

// BenchmarkSearchMiss is the cost of one served search — parse, index
// predicate and rank, a 10-hit window of minimal views decided from the
// shard's tables — at each access level, with allocs/op reported. Every
// search pays it: there is no result cache (the name is from when there
// was one and this was its miss path).
func BenchmarkSearchMiss(b *testing.B) {
	r, queries := searchMissFixture(b)
	for _, level := range fourLevels {
		user := level.String()
		b.Run(user, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := r.SearchPageCtx(context.Background(), user, queries[i%len(queries)], repo.SearchOptions{Limit: 10}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSearchServe is BenchmarkSearchMiss through server.Handler():
// the same query stream at each access level, a 10-hit window, and the
// answer written to the wire, so what the body costs is measured where it
// is paid. B/answer is the mean body size.
func BenchmarkSearchServe(b *testing.B) {
	r, queries := searchMissFixture(b)
	h := server.New(r).Handler()
	for _, level := range fourLevels {
		b.Run(level.String(), func(b *testing.B) {
			reqs := make([]*http.Request, len(queries))
			for i, q := range queries {
				reqs[i] = httptest.NewRequest(http.MethodGet, "/api/v1/search?limit=10&q="+url.QueryEscape(q), nil)
				reqs[i].Header.Set("X-Prov-User", level.String())
			}
			w := &discardWriter{header: http.Header{}}
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if h.ServeHTTP(w, reqs[i%len(reqs)]); w.status != http.StatusOK {
					b.Fatalf("answered %d", w.status)
				}
			}
			b.ReportMetric(float64(w.n)/float64(b.N), "B/answer")
		})
	}
}

// TestSearchHitAllocBudget pins what a search with a 10-hit window may
// allocate, averaged over BenchmarkSearchMiss's query stream: 33.9 at
// public and 35.0 at owner once the index builds evidence for the window
// only, as module ordinals in storage the answer reuses — plus 10 % (38.0
// and 39.4 with every match's evidence built as postings, 60.6 and 63.1
// with string-keyed prefixes, 96 and 103 before the index shared a hit's
// evidence). One workflow expansion per hit costs about 70 allocations a
// hit (797 and 925 a search before hits became table lookups), so an
// expansion, or a prefix map, that creeps back into the view pass fails
// here, in tier-1, not in a benchmark nobody reads.
func TestSearchHitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	r, queries := searchMissFixture(t)
	for user, budget := range map[string]float64{"public": 38, "owner": 39} {
		perStream := testing.AllocsPerRun(3, func() {
			for _, q := range queries {
				if _, _, err := r.SearchPageCtx(context.Background(), user, q, repo.SearchOptions{Limit: 10}); err != nil {
					t.Fatal(err)
				}
			}
		})
		if got := perStream / float64(len(queries)); got > budget {
			t.Errorf("a 10-hit search at %s allocates %.1f times on average; budget is %.0f", user, got, budget)
		} else {
			t.Logf("a 10-hit search at %s allocates %.1f times on average (budget %.0f)", user, got, budget)
		}
	}
}

// BenchmarkQueryAllParallel measures the engine-internal fan-out: one
// client, QueryAll over many executions of one spec, pool of 1 vs all
// cores.
func BenchmarkQueryAllParallel(b *testing.B) {
	r := repo.New()
	specs, pols := synthRepoFixture(b, 1)
	s := specs[0]
	if err := r.AddSpec(s, pols[s.ID]); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		e, err := exec.NewRunner(s, nil).Run(fmt.Sprintf("E%02d", i), workload.RandomInputs(s, int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if err := r.AddExecution(e); err != nil {
			b.Fatal(err)
		}
	}
	r.AddUser(privacy.User{Name: "u", Level: privacy.Analyst, Group: "g"})
	q := `MATCH a = "query"`
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			r.SetWorkers(workers)
			for i := 0; i < b.N; i++ {
				if _, _, err := r.QueryAllPageCtx(context.Background(), "u", s.ID, q, 0, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// B12 — Index churn: cost of one spec mutation as the repository grows.
// The segmented index rebuilds only the term lists the mutated spec
// touches and publishes a copy-on-write snapshot; the rebuild baseline
// re-indexes the whole repository. The gap (and its growth with
// repository size) is what incremental maintenance buys; repo-mutation
// additionally exercises the corpus delta path on a warm repository.

func BenchmarkIndexChurn(b *testing.B) {
	churn, err := workload.RandomSpec(workload.SpecConfig{
		Seed: 9999, ID: "churn", Depth: 3, Fanout: 2, Chain: 4, SkipProb: 0.2,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{10, 50, 200} {
		specs, pols := synthRepoFixture(b, n)
		b.Run(fmt.Sprintf("specs=%d/incremental", n), func(b *testing.B) {
			ix := index.BuildInverted(specs, pols)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.AddSpec(churn, nil)
				ix.RemoveSpec("churn")
			}
		})
		b.Run(fmt.Sprintf("specs=%d/rebuild", n), func(b *testing.B) {
			all := append(append([]*workflow.Spec{}, specs...), churn)
			for i := 0; i < b.N; i++ {
				index.BuildInverted(all, pols)   // add by rebuilding
				index.BuildInverted(specs, pols) // remove by rebuilding
			}
		})
		b.Run(fmt.Sprintf("specs=%d/repo-mutation", n), func(b *testing.B) {
			r := repo.New()
			for _, s := range specs {
				if err := r.AddSpec(s, pols[s.ID]); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.AddSpec(churn, nil); err != nil {
					b.Fatal(err)
				}
				if err := r.RemoveSpec("churn"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSearchMutateParallel measures the tentpole claim end to end:
// read throughput under a continuous writer. With the lock-free index
// snapshot answering and ranking the search, parallel search throughput
// with a churning writer should stay close to the read-only figure
// instead of collapsing behind a writer-held lock.
func BenchmarkSearchMutateParallel(b *testing.B) {
	run := func(b *testing.B, withWriter bool) {
		r, queries := parallelSearchFixture(b, 12)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if withWriter {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					sid := fmt.Sprintf("churn%d", i%4)
					s, err := workload.RandomSpec(workload.SpecConfig{
						Seed: int64(7000 + i%4), ID: sid, Depth: 2, Fanout: 2, Chain: 3,
					})
					if err != nil {
						b.Error(err)
						return
					}
					if err := r.AddSpec(s, nil); err != nil {
						b.Error(err)
						return
					}
					if err := r.RemoveSpec(sid); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		var next atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			j := int(next.Add(1)) * 17
			for pb.Next() {
				if _, err := r.Search("u", queries[j%len(queries)], repo.SearchOptions{}); err != nil {
					b.Fatal(err)
				}
				j++
			}
		})
		b.StopTimer()
		close(stop)
		wg.Wait()
		if withWriter {
			b.ReportMetric(float64(r.Stats().IndexSwaps), "index-swaps")
		}
	}
	b.Run("read-only", func(b *testing.B) { run(b, false) })
	b.Run("with-writer", func(b *testing.B) { run(b, true) })
}

// ---------------------------------------------------------------------------
// B13 — Taint-aware masking overhead: the cost of converting the paper's
// per-attribute guarantee into an end-to-end one (internal/taint).
// Scales execution size; compares attribute-local masking (taint=off,
// the pre-PR 3 behavior), full analyze+apply (taint=on), and apply with
// a cached taint set (taint=cached, the repository's serving path).

// firstInputAttr picks the lexicographically first input attribute —
// deterministic, unlike map iteration, so consecutive CI bench runs
// protect the same attribute and measure the same work.
func firstInputAttr(inputs map[string]exec.Value) string {
	attrs := make([]string, 0, len(inputs))
	for a := range inputs {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	return attrs[0]
}

func BenchmarkTaintMask(b *testing.B) {
	for _, sz := range []struct {
		name string
		cfg  workload.SpecConfig
	}{
		{"small", workload.SpecConfig{Seed: 13, ID: "taint-s", Depth: 2, Fanout: 2, Chain: 4}},
		{"medium", workload.SpecConfig{Seed: 13, ID: "taint-m", Depth: 3, Fanout: 2, Chain: 5}},
		{"large", workload.SpecConfig{Seed: 13, ID: "taint-l", Depth: 3, Fanout: 3, Chain: 6}},
	} {
		s, err := workload.RandomSpec(sz.cfg)
		if err != nil {
			b.Fatal(err)
		}
		pol, err := workload.RandomPolicy(s, 13)
		if err != nil {
			b.Fatal(err)
		}
		inputs := workload.RandomInputs(s, 13)
		pol.DataLevels[firstInputAttr(inputs)] = privacy.Owner // guarantee taint flows
		e, err := exec.NewRunner(s, nil).Run("E", inputs)
		if err != nil {
			b.Fatal(err)
		}
		en := datapriv.NewMasker(pol, nil).Engine()
		set := en.Analyze(e)
		items := float64(len(e.Items))
		for _, mode := range []struct {
			name string
			run  func()
		}{
			{"taint=off", func() { en.Apply(e, privacy.Public, nil) }},
			{"taint=on", func() { en.Apply(e, privacy.Public, en.Analyze(e)) }},
			{"taint=cached", func() { en.Apply(e, privacy.Public, set) }},
		} {
			b.Run(fmt.Sprintf("%s/items=%d/%s", sz.name, len(e.Items), mode.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					mode.run()
				}
				b.ReportMetric(items*float64(b.N)/b.Elapsed().Seconds(), "items/s")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// B14 — Masked structural queries: a privacy-enforced query answered on the
// shard's shared view plan (served) vs re-masking per request (staged: a
// read path that constructs a masker and deep-copy-rewrites the view on
// every query, even with the collapse and taint analysis done once).
// A query that returns no provenance reads no value, so served fills
// nothing.

func benchMaskedWorkload(b testing.TB, cfg workload.SpecConfig) (*workflow.Spec, *privacy.Policy, *exec.Execution) {
	b.Helper()
	s, err := workload.RandomSpec(cfg)
	if err != nil {
		b.Fatal(err)
	}
	pol, err := workload.RandomPolicy(s, 13)
	if err != nil {
		b.Fatal(err)
	}
	inputs := workload.RandomInputs(s, 13)
	pol.DataLevels[firstInputAttr(inputs)] = privacy.Owner // guarantee taint flows
	e, err := exec.NewRunner(s, nil).Run("E", inputs)
	if err != nil {
		b.Fatal(err)
	}
	return s, pol, e
}

func BenchmarkQueryMasked(b *testing.B) {
	for _, sz := range []struct {
		name string
		cfg  workload.SpecConfig
	}{
		{"medium", workload.SpecConfig{Seed: 13, ID: "mask-m", Depth: 3, Fanout: 2, Chain: 5}},
		{"large", workload.SpecConfig{Seed: 13, ID: "mask-l", Depth: 3, Fanout: 3, Chain: 6}},
	} {
		s, pol, e := benchMaskedWorkload(b, sz.cfg)
		r := repo.New()
		if err := r.AddSpec(s, pol); err != nil {
			b.Fatal(err)
		}
		if err := r.AddExecution(e); err != nil {
			b.Fatal(err)
		}
		r.AddUser(privacy.User{Name: "ana", Level: privacy.Analyst, Group: "g"})
		queryText := `MATCH a = "id:` + s.Workflows[s.Root].Modules[0].ID + `" RETURN bindings`
		// Build the view plan once.
		if _, err := r.Query("ana", s.ID, "E", queryText); err != nil {
			b.Fatal(err)
		}

		// staged: per-request enforcement — collapsed view and taint set
		// computed once, but each request constructs the masker chain and
		// deep-copy-rewrites the view before evaluating.
		en := datapriv.NewMasker(pol, nil).Engine()
		set := en.Analyze(e)
		h, err := workflow.NewHierarchy(s)
		if err != nil {
			b.Fatal(err)
		}
		view, err := exec.Collapse(e, s, pol.AccessView(h, privacy.Analyst))
		if err != nil {
			b.Fatal(err)
		}
		q, err := query.Parse(queryText)
		if err != nil {
			b.Fatal(err)
		}
		ev := query.NewEvaluator(s)
		b.Run(sz.name+"/staged", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				masked, _ := datapriv.NewMasker(pol, nil).Engine().Apply(view, privacy.Analyst, set)
				pe, err := query.PrepareExec(masked)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ev.EvaluateOn(q, pe, pol, privacy.Analyst, false); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sz.name+"/served", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := r.Query("ana", s.ID, "E", queryText); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestWarmQueryAllocBudget pins what a one-variable structural query that
// binds one node of a resident snapshot may allocate: the parse, the
// candidate list and its map, the answer and its binding — 17 by keywords
// and 18 by id literal on BenchmarkQueryMasked's medium workload.
// Finding every node's module by sorting the spec's workflow ids cost 30
// more and rebuilding its term set 130 beyond that, per request; the
// budget of 20 has no room for either.
func TestWarmQueryAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s, pol, e := benchMaskedWorkload(t, workload.SpecConfig{Seed: 13, ID: "mask-m", Depth: 3, Fanout: 2, Chain: 5})
	r := repo.New()
	if err := r.AddSpec(s, pol); err != nil {
		t.Fatal(err)
	}
	if err := r.AddExecution(e); err != nil {
		t.Fatal(err)
	}
	r.AddUser(privacy.User{Name: "ana", Level: privacy.Analyst, Group: "g"})
	measured := 0
	for _, m := range s.Workflows[s.Root].Modules {
		for _, phrase := range []string{"id:" + m.ID, strings.Join(m.AllKeywords(), " ")} {
			queryText := `MATCH a = "` + phrase + `" RETURN bindings`
			ans, err := r.Query("ana", s.ID, "E", queryText) // fills the snapshot
			if err != nil {
				t.Fatal(err)
			}
			if len(ans.Bindings) != 1 {
				continue // allocations grow with the answer; the budget is for one binding
			}
			measured++
			got := testing.AllocsPerRun(200, func() {
				if _, err := r.Query("ana", s.ID, "E", queryText); err != nil {
					t.Fatal(err)
				}
			})
			if got > 20 {
				t.Errorf("warm %s allocates %.0f times; budget is 20", queryText, got)
			}
		}
	}
	if measured < 2 {
		t.Fatalf("only %d queries bound exactly one node; the budget went unmeasured", measured)
	}
}

// B15 — Provenance under parallel load over one shared, immutable view
// plan: every worker fills its own masked snapshot over it and reads the
// item's provenance from the plan's index.
func BenchmarkProvenanceParallel(b *testing.B) {
	s, pol, e := benchMaskedWorkload(b, workload.SpecConfig{
		Seed: 13, ID: "prov-par", Depth: 3, Fanout: 2, Chain: 5,
	})
	r := repo.New()
	if err := r.AddSpec(s, pol); err != nil {
		b.Fatal(err)
	}
	if err := r.AddExecution(e); err != nil {
		b.Fatal(err)
	}
	r.AddUser(privacy.User{Name: "ana", Level: privacy.Analyst, Group: "g"})
	// Pick a publicly visible item deterministically.
	var itemID string
	for _, id := range e.ItemIDs() {
		if _, err := r.Provenance("ana", s.ID, "E", id); err == nil {
			itemID = id
			break
		}
	}
	if itemID == "" {
		b.Fatal("no publicly visible item")
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := r.Provenance("ana", s.ID, "E", itemID); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// provenanceServeFixture is BenchmarkProvenanceParallel's workload behind
// server.Handler(): a /provenance request, by an analyst, for the visible
// item whose provenance is largest, already answered once so its view
// plan, provenance index and pre-encoded runs exist.
func provenanceServeFixture(tb testing.TB) (http.Handler, *http.Request) {
	tb.Helper()
	s, pol, e := benchMaskedWorkload(tb, workload.SpecConfig{Seed: 13, ID: "prov-serve", Depth: 3, Fanout: 2, Chain: 5})
	r := repo.New()
	if err := r.AddSpec(s, pol); err != nil {
		tb.Fatal(err)
	}
	if err := r.AddExecution(e); err != nil {
		tb.Fatal(err)
	}
	r.AddUser(privacy.User{Name: "ana", Level: privacy.Analyst, Group: "g"})
	item, largest := "", 0
	for _, id := range e.ItemIDs() {
		if prov, err := r.Provenance("ana", s.ID, "E", id); err == nil && len(prov.Items) > largest {
			item, largest = id, len(prov.Items)
		}
	}
	if item == "" {
		tb.Fatal("no visible item")
	}
	h := server.New(r).Handler()
	req := httptest.NewRequest(http.MethodGet, "/api/v1/provenance?spec="+s.ID+"&exec=E&item="+item, nil)
	req.Header.Set("X-Prov-User", "ana")
	w := &discardWriter{header: http.Header{}}
	if h.ServeHTTP(w, req); w.status != http.StatusOK || w.n == 0 {
		tb.Fatalf("warm-up answered %d with %d bytes", w.status, w.n)
	}
	return h, req
}

// discardWriter is a reusable http.ResponseWriter that keeps the status
// and counts the body, so a served request is timed without a recorder's
// buffering.
type discardWriter struct {
	header    http.Header
	status, n int
}

func (w *discardWriter) Header() http.Header    { return w.header }
func (w *discardWriter) WriteHeader(status int) { w.status = status }
func (w *discardWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

// BenchmarkProvenanceServe times one /provenance answer through
// server.Handler(): query parsing, authentication, the fill of the
// asker's masked snapshot over the plan, and the answer written from the
// plan's provenance index and pre-encoded runs.
func BenchmarkProvenanceServe(b *testing.B) {
	h, req := provenanceServeFixture(b)
	w := &discardWriter{header: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
	b.StopTimer()
	if w.status != http.StatusOK {
		b.Fatalf("answered %d", w.status)
	}
	b.ReportMetric(float64(w.n)/float64(b.N), "B/answer")
}

// TestProvenanceServeAllocBudget pins what a /provenance answer may
// allocate through server.Handler(). Serving it takes 8: the parsed query
// string, the Content-Type header value and authentication's, where
// building the induced sub-execution and encoding it by reflection cost
// 191. Every answer fills the asker's masked snapshot, which takes 29 more
// on this fixture, nearly all of them taint.Replacer.rewrite's: 22
// rewritten values and the 3 replacement texts of the protected values
// they embed; the value vector and the snapshot's name are one each. The
// budget of 41 is the 37 plus 10 %: a copied node, edge or item, or a value
// boxed for encoding/json, does not fit.
func TestProvenanceServeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	h, req := provenanceServeFixture(t)
	w := &discardWriter{header: http.Header{}}
	if got := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) }); got > 41 {
		t.Fatalf("a /provenance answer allocates %.0f times; budget is 41", got)
	}
}

// ---------------------------------------------------------------------------
// B16 — Enforced-view fill: what every read of values pays per execution —
// values gathered into the view plan, taint analysis, mask — and, for the
// first execution of a shape, the collapse to the access view and its
// preparation. The fixture is provload's deep-0 spec (same SpecConfig and
// seeds) holding more executions than a shard's plan LRU holds entries,
// walked cyclically at one level.

// coldFillExecs is internal/repo's shardCacheCap + 76.
const coldFillExecs = 1024 + 76

// coldFixture is the deep spec with its executions, every one a run of
// the same shape, and a reader at one level.
type coldFixture struct {
	r     *repo.Repository
	execs []*exec.Execution
	// visible is how many items the reader's access view shows.
	visible int
	// read reads, as the fixture's reader, the provenance of an item that
	// its level sees in the named execution.
	read func(execID string)
}

// step is the walk's i-th read: the executions in order, cyclically.
func (f *coldFixture) step(i int) { f.read(f.execs[i%len(f.execs)].ID) }

// coldWalk registers the deep spec with its executions and walks them
// once as a reader at level, so the shape's view plan and item ancestry
// exist and every later step is the steady state of a long walk.
func coldWalk(tb testing.TB, level privacy.Level) *coldFixture {
	tb.Helper()
	const seed = 1*100003 + 1000
	s, err := workload.RandomSpec(workload.SpecConfig{Seed: seed, ID: "deep-0", Depth: 3, Fanout: 2, Chain: 4, SkipProb: 0.3})
	if err != nil {
		tb.Fatal(err)
	}
	pol, err := workload.RandomPolicy(s, seed)
	if err != nil {
		tb.Fatal(err)
	}
	f := &coldFixture{r: repo.New(), execs: make([]*exec.Execution, coldFillExecs)}
	if err := f.r.AddSpec(s, pol); err != nil {
		tb.Fatal(err)
	}
	for j := range f.execs {
		if f.execs[j], err = exec.NewRunner(s, nil).Run(fmt.Sprintf("deep-0-E%d", j), workload.RandomInputs(s, int64(seed*4099+j))); err != nil {
			tb.Fatal(err)
		}
		if err := f.r.AddExecution(f.execs[j]); err != nil {
			tb.Fatal(err)
		}
	}
	h, err := workflow.NewHierarchy(s)
	if err != nil {
		tb.Fatal(err)
	}
	vis, err := exec.VisibleItems(f.execs[0], s, pol.AccessView(h, level))
	if err != nil || len(vis) == 0 {
		tb.Fatalf("no visible item: %v", err)
	}
	f.visible = len(vis)
	f.r.AddUser(privacy.User{Name: "scraper", Level: level, Group: level.String()})
	ctx := context.Background()
	f.read = func(execID string) {
		if _, err := f.r.ProvenanceWithCtx(ctx, "scraper", s.ID, execID, vis[len(vis)-1], repo.ProvenanceOptions{}); err != nil {
			tb.Fatal(err)
		}
	}
	for i := range f.execs {
		f.step(i)
	}
	return f
}

// BenchmarkColdFill times one read. same-shape is the walk of a
// registered reader: the execution's shape has its view plan and its item
// ancestry, so the fill copies values, analyses what that level may not see
// and masks. owner is the same walk by the owner, who may see everything:
// the fill copies and masks and analyses nothing. first-of-shape reads, as
// the registered reader, an execution no other resembles (a run whose last
// node carries a process id of its own, registered outside the timer): the
// fill also collapses and prepares the view and derives the ancestry —
// everything a fill did before shapes were shared, plus the copy.
func BenchmarkColdFill(b *testing.B) {
	walk := func(level privacy.Level) func(b *testing.B) {
		return func(b *testing.B) {
			f := coldWalk(b, level)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.step(i)
			}
			b.StopTimer()
			if st := f.r.Stats(); st.MaskedCacheMisses != int64(len(f.execs)+b.N) || st.ExecShapes != 1 {
				b.Fatalf("walk did not fill once per read over one shape: %d fills for %d reads, %d shapes", st.MaskedCacheMisses, len(f.execs)+b.N, st.ExecShapes)
			}
		}
	}
	b.Run("same-shape", walk(privacy.Registered))
	b.Run("owner", walk(privacy.Owner))
	b.Run("first-of-shape", func(b *testing.B) {
		f := coldWalk(b, privacy.Registered)
		b.ReportAllocs()
		b.ResetTimer()
		var batch []*exec.Execution
		for i := 0; i < b.N; i++ {
			if i%len(f.execs) == 0 { // register the next batch, off the clock
				b.StopTimer()
				batch = batch[:0]
				for j := 0; j < len(f.execs) && i+j < b.N; j++ {
					e := *f.execs[j]
					e.ID = fmt.Sprintf("%s-own-%d", e.ID, i+j)
					e.Nodes = slices.Clone(e.Nodes)
					last := *e.Nodes[len(e.Nodes)-1]
					last.Proc = fmt.Sprintf("P%d", i+j)
					e.Nodes[len(e.Nodes)-1] = &last
					if err := f.r.AddExecution(&e); err != nil {
						b.Fatal(err)
					}
					batch = append(batch, &e)
				}
				b.StartTimer()
			}
			f.read(batch[i%len(f.execs)].ID)
		}
		b.StopTimer()
		if st := f.r.Stats(); st.MaskedCacheMisses != int64(len(f.execs)+b.N) || st.ExecShapes != 1+b.N {
			b.Fatalf("reads were not each a fill of the first of a shape: %d fills, %d shapes for %d reads", st.MaskedCacheMisses, st.ExecShapes, b.N)
		}
	})
}

// TestColdFillAllocBudget pins what one read on BenchmarkColdFill's walk
// may allocate: the fill (the execution's values gathered into the plan's
// slots, taint analysis, mask) and the provenance answer. It was 763 when
// every stage copied the view and rebuilt its graph, 217 when the fill did
// each piece of work once per execution, 96 once structure was held once
// per shape, 68 once the analysis was the reader's — sources above its
// level, targets its view's items, in pooled memory — 14 once the answer
// was read from the plan's provenance index instead of copied out as an
// induced sub-execution, 10 once a snapshot was a value vector over its
// plan, with no header, item map or item slab of its own, and is 9 now
// that no cache holds the snapshot: the vector, its redacted bits, the
// snapshot's name, the user lookup's copy and the rewritten values. The
// budget of 12 has no room for an item map; the bytes arm
// holds the rest of a per-snapshot copy out: a read allocates less than an
// item slab and one map bucket for the view would take on their own.
func TestColdFillAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	f := coldWalk(t, privacy.Registered)
	i := 0
	if got := testing.AllocsPerRun(200, func() { f.step(i); i++ }); got > 12 {
		t.Fatalf("a cold provenance read allocates %.0f times; budget is 12", got)
	}
	const reads = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range reads {
		f.step(i)
		i++
	}
	runtime.ReadMemStats(&after)
	// A DataItem is 72 bytes; a map bucket of 8 string keys and pointers 208,
	// with 48 of header.
	perRead, budget := (after.TotalAlloc-before.TotalAlloc)/reads, uint64(72*f.visible+256)
	if perRead >= budget {
		t.Fatalf("a cold provenance read allocates %d bytes; a view of %d items held as an item slab and map would take %d on its own", perRead, f.visible, budget)
	}
	t.Logf("a cold provenance read allocates %d bytes (budget %d for a view of %d items)", perRead, budget, f.visible)
}

// ---------------------------------------------------------------------------
// B17 — Policy update and rewarm: what a policy update costs until every
// reader has read again — the install (index segment, access views, engine)
// and a provenance-returning Query of each of 24 executions at 4 levels. Two
// policies alternate, so every install really replaces one; their views'
// plans stay, so a rewarm copies, analyses and masks, and builds no view.
func BenchmarkPolicyUpdateRewarm(b *testing.B) {
	const seed = 1*100003 + 1000
	s, err := workload.RandomSpec(workload.SpecConfig{Seed: seed, ID: "deep-0", Depth: 3, Fanout: 2, Chain: 4, SkipProb: 0.3})
	if err != nil {
		b.Fatal(err)
	}
	var pols [2]*privacy.Policy
	for i := range pols {
		if pols[i], err = workload.RandomPolicy(s, int64(seed+i)); err != nil {
			b.Fatal(err)
		}
	}
	r := repo.New()
	if err := r.AddSpec(s, pols[0]); err != nil {
		b.Fatal(err)
	}
	for j := 0; j < 24; j++ {
		e, err := exec.NewRunner(s, nil).Run(fmt.Sprintf("deep-0-E%d", j), workload.RandomInputs(s, int64(seed*4099+j)))
		if err != nil {
			b.Fatal(err)
		}
		if err := r.AddExecution(e); err != nil {
			b.Fatal(err)
		}
	}
	users := []string{"public", "registered", "analyst", "owner"}
	for i, lvl := range []privacy.Level{privacy.Public, privacy.Registered, privacy.Analyst, privacy.Owner} {
		r.AddUser(privacy.User{Name: users[i], Level: lvl, Group: users[i]})
	}
	execIDs := r.ExecutionIDs(s.ID)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.UpdatePolicy(s.ID, pols[(i+1)%2]); err != nil {
			b.Fatal(err)
		}
		for _, execID := range execIDs {
			for _, user := range users {
				if _, err := r.Query(user, s.ID, execID, `MATCH a = "query" RETURN provenance(a)`); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.StopTimer()
	if st := r.Stats(); st.MaskedCacheMisses != int64(b.N*len(execIDs)*len(users)) {
		b.Fatalf("%d fills over %d installs: every read should have filled its view", st.MaskedCacheMisses, b.N)
	}
}
