package repo

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/taint"
	"provpriv/internal/workload"
)

// These tests exercise the sharded engine adversarially and are meant
// to run under `go test -race`: searches, ingest, snapshot prewarms
// and spec removal all race against each other, and the
// assertions check that every observed answer is internally consistent
// (no partial state, no privacy downgrade) rather than that a specific
// interleaving happened.

func multiSpecRepo(t testing.TB, n int) *Repository {
	t.Helper()
	r := New()
	for i := 0; i < n; i++ {
		s, err := workload.RandomSpec(workload.SpecConfig{
			Seed: int64(i), ID: fmt.Sprintf("s%d", i), Depth: 3, Fanout: 2, Chain: 4, SkipProb: 0.2,
		})
		if err != nil {
			t.Fatalf("RandomSpec: %v", err)
		}
		pol := privacy.NewPolicy(s.ID)
		k := 0
		for _, wid := range s.WorkflowIDs() {
			for _, m := range s.Workflows[wid].Modules {
				if k%3 == 0 {
					pol.ModuleLevels[m.ID] = privacy.Analyst
				}
				k++
			}
		}
		if err := r.AddSpec(s, pol); err != nil {
			t.Fatalf("AddSpec: %v", err)
		}
		e, err := exec.NewRunner(s, nil).Run(s.ID+"-E0", workload.RandomInputs(s, int64(i)))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if err := r.AddExecution(e); err != nil {
			t.Fatalf("AddExecution: %v", err)
		}
	}
	r.AddUser(privacy.User{Name: "pub", Level: privacy.Public, Group: "g-pub"})
	r.AddUser(privacy.User{Name: "reg", Level: privacy.Registered, Group: "g-reg"})
	r.AddUser(privacy.User{Name: "ana", Level: privacy.Analyst, Group: "g-ana"})
	return r
}

// TestParallelSearchIngestMaterialize races Search, AddExecution and
// PrewarmMasked (eager materialization of the masked-snapshot cache)
// from separate goroutine pools.
func TestParallelSearchIngestMaterialize(t *testing.T) {
	r := multiSpecRepo(t, 6)
	queries := workload.RandomQueries(rand.New(rand.NewSource(1)), nil, 16)
	var wg sync.WaitGroup
	var searchErrs atomic.Int64

	// Readers: keyword search at every level, cached and uncached.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			users := []string{"pub", "reg", "ana"}
			for i := 0; i < 40; i++ {
				q := queries[(g*40+i)%len(queries)]
				if _, err := r.Search(users[i%3], q, SearchOptions{BypassCache: i%2 == 0}); err != nil {
					searchErrs.Add(1)
				}
			}
		}(g)
	}
	// Writers: new executions on every spec.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				sid := fmt.Sprintf("s%d", (g*10+i)%6)
				s := r.Spec(sid)
				e, err := exec.NewRunner(s, nil).Run(fmt.Sprintf("%s-g%d-E%d", sid, g, i), workload.RandomInputs(s, int64(i)))
				if err != nil {
					t.Errorf("Run: %v", err)
					return
				}
				if err := r.AddExecution(e); err != nil {
					t.Errorf("AddExecution: %v", err)
					return
				}
			}
		}(g)
	}
	// Prewarms of every shard concurrent with everything else.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			for _, sid := range r.SpecIDs() {
				if _, err := r.PrewarmMasked(context.Background(), sid, []privacy.Level{privacy.Public, privacy.Registered}, nil); err != nil {
					t.Errorf("PrewarmMasked: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()

	if n := searchErrs.Load(); n != 0 {
		t.Fatalf("%d searches failed", n)
	}
	// All ingested executions are visible afterwards.
	st := r.Stats()
	if st.Specs != 6 || st.Executions != 6+20 {
		t.Fatalf("stats after race = %+v", st)
	}
}

// TestParallelQueryAndProvenance hammers the per-execution read paths
// (Query, QueryAll, Provenance, Reaches) from many goroutines while an
// ingest stream grows one shard, checking the singleflight view cache
// never serves a wrong-level view: a public user must never see an
// unredacted protected value.
func TestParallelQueryAndProvenance(t *testing.T) {
	r := seededRepo(t) // disease-susceptibility with snps protected at Owner
	e := r.execution("disease-susceptibility", "E1")
	var progID string
	for id, it := range e.Items {
		if it.Attr == "prognosis" {
			progID = id
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				prov, err := r.Provenance("bob", "disease-susceptibility", "E1", progID)
				if err != nil {
					t.Errorf("Provenance: %v", err)
					return
				}
				for _, it := range prov.Items {
					if it.Attr == "snps" && !it.Redacted {
						t.Error("public provenance leaked protected snps value")
						return
					}
				}
				if _, err := r.Query("alice", "disease-susceptibility", "E1", `MATCH a = "reformat"`); err != nil {
					t.Errorf("Query: %v", err)
					return
				}
				if _, err := r.QueryAll("carol", "disease-susceptibility", `MATCH a = "reformat"`); err != nil {
					t.Errorf("QueryAll: %v", err)
					return
				}
				if got, err := r.Reaches("alice", "disease-susceptibility", "M12", "M11"); err != nil || !got {
					t.Errorf("Reaches = %v, %v", got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestParallelAddRemoveSpec races spec registration/removal against
// search: the index and shard directory must stay consistent (a hit
// must always resolve to a live spec).
func TestParallelAddRemoveSpec(t *testing.T) {
	r := multiSpecRepo(t, 4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			sid := fmt.Sprintf("churn%d", i)
			s, err := workload.RandomSpec(workload.SpecConfig{
				Seed: int64(100 + i), ID: sid, Depth: 2, Fanout: 1, Chain: 3,
			})
			if err != nil {
				t.Errorf("RandomSpec: %v", err)
				return
			}
			if err := r.AddSpec(s, nil); err != nil {
				t.Errorf("AddSpec: %v", err)
				return
			}
			if err := r.RemoveSpec(sid); err != nil {
				t.Errorf("RemoveSpec: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				hits, err := r.Search("ana", "query, filter", SearchOptions{BypassCache: true})
				if err != nil {
					continue // all-phrase miss is legal mid-churn
				}
				for _, h := range hits {
					if r.Spec(h.SpecID) == nil && h.SpecID[:1] != "c" {
						t.Errorf("hit on dead spec %s", h.SpecID)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestReregisteredSpecNeverJoinsRemovedFill: RemoveSpec + AddSpec of the
// same id starts a fresh shard whose polGen restarts at 0, so its cache
// and flight keys collide with the removed incarnation's. A reader of
// the new, stricter incarnation must neither wait on nor be handed a
// snapshot whose fill the removed incarnation still has in flight — that
// snapshot was masked under the removed policy.
func TestReregisteredSpecNeverJoinsRemovedFill(t *testing.T) {
	r := seededRepo(t) // incarnation 1: ethnicity is public
	spec := r.Spec(diseaseID)
	e := r.execution(diseaseID, "E1")
	progID := itemByAttr(t, r, "prognosis")

	// Hold incarnation 1's public fill open: park its taint analysis on a
	// gate, then start a real read that joins it from inside the masked
	// fill.
	old := r.shard(spec.ID)
	tkey := taintCacheKey{execID: "E1", polGen: 0}
	mkey := maskedCacheKey{execID: "E1", level: privacy.Public, polGen: 0}
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	var wg sync.WaitGroup
	defer wg.Wait()
	defer release()
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _ = old.taintFlights.Do(tkey, func() (*taint.Set, error) {
			<-gate
			return old.engine.Analyze(e), nil
		})
	}()
	awaitWaiters(&old.taintFlights, tkey, 0)
	go func() {
		defer wg.Done()
		_, _ = r.Provenance("bob", spec.ID, "E1", progID)
	}()
	awaitWaiters(&old.taintFlights, tkey, 1)
	if old.maskedFlights.waiters(mkey) != 0 {
		t.Fatal("incarnation 1's masked fill is not in flight")
	}

	// Incarnation 2: same ids, ethnicity now owner-only.
	if err := r.RemoveSpec(spec.ID); err != nil {
		t.Fatalf("RemoveSpec: %v", err)
	}
	strict := privacy.NewPolicy(spec.ID)
	strict.DataLevels["ethnicity"] = privacy.Owner
	if err := r.AddSpec(spec, strict); err != nil {
		t.Fatalf("re-AddSpec: %v", err)
	}
	if err := r.AddExecution(e); err != nil {
		t.Fatalf("re-AddExecution: %v", err)
	}
	type result struct {
		prov *exec.Execution
		err  error
	}
	done := make(chan result, 1)
	go func() {
		prov, err := r.Provenance("bob", spec.ID, "E1", progID)
		done <- result{prov, err}
	}()
	var got result
	for waiting := true; waiting; {
		select {
		case got = <-done:
			waiting = false
		default:
			if old.maskedFlights.waiters(mkey) > 0 {
				t.Fatal("reader of the re-registered spec joined the removed incarnation's fill")
			}
			runtime.Gosched()
		}
	}
	if got.err != nil {
		t.Fatalf("Provenance on incarnation 2: %v", got.err)
	}
	for id, it := range got.prov.Items {
		if strings.Contains(string(it.Value), "eth1") {
			t.Fatalf("item %s served under the removed policy: %q", id, it.Value)
		}
	}
}

// TestFanOutDeterministicMerge checks Search is stable across worker
// counts: 1 worker (serial) and many workers must produce identical hit
// lists. (Search builds its views inline since the index answers the
// predicate, so the pool size must simply not matter.)
func TestFanOutDeterministicMerge(t *testing.T) {
	r := multiSpecRepo(t, 8)
	serial := func() []SearchHit {
		r.SetWorkers(1)
		hits, err := r.Search("ana", "query", SearchOptions{BypassCache: true})
		if err != nil {
			t.Fatalf("Search serial: %v", err)
		}
		return hits
	}()
	for _, workers := range []int{2, 8, 32} {
		r.SetWorkers(workers)
		hits, err := r.Search("ana", "query", SearchOptions{BypassCache: true})
		if err != nil {
			t.Fatalf("Search workers=%d: %v", workers, err)
		}
		if len(hits) != len(serial) {
			t.Fatalf("workers=%d: %d hits vs serial %d", workers, len(hits), len(serial))
		}
		for i := range hits {
			if hits[i].SpecID != serial[i].SpecID || hits[i].Score != serial[i].Score {
				t.Fatalf("workers=%d: hit %d = (%s,%g), serial (%s,%g)", workers, i,
					hits[i].SpecID, hits[i].Score, serial[i].SpecID, serial[i].Score)
			}
		}
	}
}
