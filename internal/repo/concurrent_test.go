package repo

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/graph"
	"provpriv/internal/privacy"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// These tests exercise the sharded engine adversarially and are meant
// to run under `go test -race`: searches, ingest, fills and spec
// removal all race against each other, and the
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
// fills of every execution's snapshot at two levels (fillEvery) from
// separate goroutine pools.
func TestParallelSearchIngestMaterialize(t *testing.T) {
	r := multiSpecRepo(t, 6)
	queries := workload.RandomQueries(rand.New(rand.NewSource(1)), nil, 16)
	var wg sync.WaitGroup
	var searchErrs atomic.Int64

	// Readers: keyword search at every level.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			users := []string{"pub", "reg", "ana"}
			for i := 0; i < 40; i++ {
				q := queries[(g*40+i)%len(queries)]
				if _, err := r.Search(users[i%3], q, SearchOptions{}); err != nil {
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
	// Snapshot reads of every shard concurrent with everything else.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			for _, sid := range r.SpecIDs() {
				fillEvery(t, r, sid, []privacy.Level{privacy.Public, privacy.Registered})
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
// ingest stream grows one shard, checking that no read is served a
// wrong-level view: a public user must never see an unredacted protected
// value.
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
				hits, err := r.Search("ana", "query, filter", SearchOptions{})
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
// same id starts a fresh shard with the removed incarnation's execution ids
// and levels. While a read of the removed incarnation is parked inside its
// fill, a reader of the new, stricter incarnation must be answered, and
// masked under the new policy, not the removed one.
func TestReregisteredSpecNeverJoinsRemovedFill(t *testing.T) {
	r := seededRepo(t) // incarnation 1: ethnicity is public
	spec := r.Spec(diseaseID)
	e := r.execution(diseaseID, "E1")
	progID := itemByAttr(t, r, "prognosis")

	// Hold incarnation 1's public fill open: a real read, parked at the
	// first stage of its fill.
	parked := &parkingValues{Context: context.Background(), at: 1, reached: make(chan struct{}), release: make(chan struct{})}
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(parked.release)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = r.ProvenanceWithCtx(parked, "bob", spec.ID, "E1", progID, ProvenanceOptions{})
	}()
	<-parked.reached

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
	got := <-done
	if got.err != nil {
		t.Fatalf("Provenance on incarnation 2: %v", got.err)
	}
	for id, it := range got.prov.Items {
		if strings.Contains(string(it.Value), "eth1") {
			t.Fatalf("item %s served under the removed policy: %q", id, it.Value)
		}
	}
}

// twoStageSpec is a root workflow of two composites in series, each a
// two-module chain. Forward it reads I → C1(a1 → a2) → C2(b1 → b2) → O;
// reversed, every arrow between modules is turned: I → C2(b2 → b1) →
// C1(a2 → a1) → O. Same ids either way.
func twoStageSpec(t *testing.T, id string, reversed bool) *workflow.Spec {
	t.Helper()
	first, second := [3]string{"C1", "a1", "a2"}, [3]string{"C2", "b1", "b2"}
	if reversed {
		first, second = [3]string{"C2", "b2", "b1"}, [3]string{"C1", "a2", "a1"}
	}
	b := workflow.NewBuilder(id, id, "W")
	b.Workflow("W", "Root").Source("I", "x0").
		Composite(first[0], "First", "W"+first[0], []string{"x0"}, []string{"x1"}).
		Composite(second[0], "Second", "W"+second[0], []string{"x1"}, []string{"x2"}).
		Sink("O", "x2").
		Edge("I", first[0], "x0").Edge(first[0], second[0], "x1").Edge(second[0], "O", "x2")
	for i, stage := range [][3]string{first, second} {
		in, mid, out := fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", i), fmt.Sprintf("x%d", i+1)
		b.Workflow("W"+stage[0], stage[0]).
			Atomic(stage[1], stage[1], []string{in}, []string{mid}).
			Atomic(stage[2], stage[2], []string{mid}, []string{out}).
			Edge(stage[1], stage[2], mid)
	}
	s, err := b.Build()
	if err != nil {
		t.Fatalf("twoStageSpec: %v", err)
	}
	return s
}

// reachAnswer is what Reaches said: the boolean, and whether it refused.
type reachAnswer struct{ reaches, refused bool }

var twoStageModules = []string{"I", "C1", "C2", "O", "a1", "a2", "b1", "b2"}

// reachTruth asks a repository holding nothing but (s, pol) every module
// pair at every level: one incarnation's answers, with no other to mix in.
func reachTruth(t *testing.T, s *workflow.Spec, pol *privacy.Policy) map[[3]string]reachAnswer {
	t.Helper()
	r := New()
	if err := r.AddSpec(s, pol); err != nil {
		t.Fatalf("AddSpec: %v", err)
	}
	truth := make(map[[3]string]reachAnswer)
	for _, lvl := range allLevels {
		r.AddUser(privacy.User{Name: lvl.String(), Level: lvl})
		for _, from := range twoStageModules {
			for _, to := range twoStageModules {
				got, err := r.Reaches(lvl.String(), s.ID, from, to)
				truth[[3]string{lvl.String(), from, to}] = reachAnswer{got, err != nil}
			}
		}
	}
	return truth
}

// incarnation is one (spec, policy) registration of a spec id, with the
// answers it alone gives.
type incarnation struct {
	spec  *workflow.Spec
	pol   *privacy.Policy
	truth map[[3]string]reachAnswer
}

// reachIncarnations is the fixture of the two tests below: spec id "x" as
// a (forward, every level sees the full expansion) and as b (reversed, the
// public level sees the root only).
func reachIncarnations(t *testing.T) (a, b incarnation) {
	t.Helper()
	a = incarnation{spec: twoStageSpec(t, "x", false), pol: privacy.NewPolicy("x")}
	b = incarnation{spec: twoStageSpec(t, "x", true), pol: privacy.NewPolicy("x")}
	a.pol.ViewGrants[privacy.Public] = []string{"WC1", "WC2"}
	b.pol.ViewGrants[privacy.Registered] = []string{"WC1", "WC2"}
	a.truth, b.truth = reachTruth(t, a.spec, a.pol), reachTruth(t, b.spec, b.pol)
	// What a mixed answer would look like, and that the tables can tell:
	// b's arrows at a's granularity say a2 contributes to a1; a (a1 → a2)
	// and b (both inside C1 at the public level) each say it does not.
	mixed := [3]string{privacy.Public.String(), "a2", "a1"}
	if a.truth[mixed].reaches || b.truth[mixed].reaches || !b.truth[[3]string{privacy.Owner.String(), "a2", "a1"}].reaches {
		t.Fatalf("fixture cannot tell a mixed answer apart: a %+v, b %+v", a.truth[mixed], b.truth[mixed])
	}
	return a, b
}

// TestReachesAnswersFromTheResolvedShard: the closure Reaches answers from
// is on an access step of the resolved shard's own generation, so a spec id
// re-registered with other arrows under a stricter policy is answered
// from the new incarnation alone — B's truth at B's granularity for every
// pair and level — while the removed shard still holds A's closure.
func TestReachesAnswersFromTheResolvedShard(t *testing.T) {
	a, b := reachIncarnations(t)
	r := New()
	for _, lvl := range allLevels {
		r.AddUser(privacy.User{Name: lvl.String(), Level: lvl})
	}
	if err := r.AddSpec(a.spec, a.pol); err != nil {
		t.Fatalf("AddSpec A: %v", err)
	}
	old := r.shard("x")
	if err := r.RemoveSpec("x"); err != nil {
		t.Fatalf("RemoveSpec: %v", err)
	}
	if err := r.AddSpec(b.spec, b.pol); err != nil {
		t.Fatalf("AddSpec B: %v", err)
	}
	for key, want := range b.truth {
		got, err := r.Reaches(key[0], "x", key[1], key[2])
		if (reachAnswer{got, err != nil}) != want {
			t.Errorf("Reaches(%s, %s, %s) = %v, %v; B alone answers %+v", key[0], key[1], key[2], got, err, want)
		}
	}
	owner := privacy.Owner.String()
	full, reach, err := old.current().step(privacy.Owner).closure(old)
	if err != nil {
		t.Fatalf("removed shard's closure: %v", err)
	}
	names := make([]string, full.N())
	for i := range names {
		names[i] = full.Name(graph.NodeID(i))
	}
	for _, from := range names {
		for _, to := range names {
			got := from != to && reach.Reach(full.Lookup(from), full.Lookup(to))
			if want := a.truth[[3]string{owner, from, to}]; want.refused || got != want.reaches {
				t.Errorf("removed shard's closure: %s → %s = %v; A answers %+v", from, to, got, want)
			}
		}
	}
}

// TestReachesNeverMixesIncarnations is the same property under -race:
// public readers loop on Reaches while a writer re-registers "x" back
// and forth between (A, polA) and (B, polB). Each answer must be A's truth
// at A's granularity or B's at B's — never B's arrows at A's granularity,
// which is what a closure looked up by spec id after the shard was
// resolved by pointer used to be able to serve.
func TestReachesNeverMixesIncarnations(t *testing.T) {
	a, b := reachIncarnations(t)
	r := New()
	pub := privacy.Public.String()
	r.AddUser(privacy.User{Name: pub, Level: privacy.Public})
	if err := r.AddSpec(a.spec, a.pol); err != nil {
		t.Fatalf("AddSpec A: %v", err)
	}
	start := make(chan struct{})
	var stop atomic.Bool
	var readers, writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		defer stop.Store(true)
		<-start
		for i := 0; i < 200; i++ {
			next := b
			if i%2 == 1 {
				next = a
			}
			if err := r.RemoveSpec("x"); err != nil {
				t.Errorf("RemoveSpec: %v", err)
				return
			}
			if err := r.AddSpec(next.spec, next.pol); err != nil {
				t.Errorf("AddSpec: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			<-start
			for !stop.Load() {
				for _, from := range twoStageModules {
					for _, to := range twoStageModules {
						got, err := r.Reaches(pub, "x", from, to)
						if errors.Is(err, ErrNotFound) {
							continue // between the writer's remove and its add
						}
						key, ans := [3]string{pub, from, to}, reachAnswer{got, err != nil}
						if ans != a.truth[key] && ans != b.truth[key] {
							t.Errorf("Reaches(%s, %s) = %v, %v: neither A's answer %+v nor B's %+v", from, to, got, err, a.truth[key], b.truth[key])
							return
						}
					}
				}
			}
		}()
	}
	close(start)
	writer.Wait()
	readers.Wait()
}

// TestFanOutDeterministicMerge checks Search is stable across worker
// counts: 1 worker (serial) and many workers must produce identical hit
// lists. (Search builds its views inline since the index answers the
// predicate, so the pool size must simply not matter.)
func TestFanOutDeterministicMerge(t *testing.T) {
	r := multiSpecRepo(t, 8)
	serial := func() []SearchHit {
		r.SetWorkers(1)
		hits, err := r.Search("ana", "query", SearchOptions{})
		if err != nil {
			t.Fatalf("Search serial: %v", err)
		}
		return hits
	}()
	for _, workers := range []int{2, 8, 32} {
		r.SetWorkers(workers)
		hits, err := r.Search("ana", "query", SearchOptions{})
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
