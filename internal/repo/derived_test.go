package repo

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/storage"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// ckptFile/walFile name a shard's checkpoint and log files in the flat
// backend's layout (mirrored here so the tests can assert which files a
// save touched).
func ckptFile(sid string, gen uint64) string {
	return fmt.Sprintf("ckpt-%s-%016x.log", storage.FileBase(sid), gen)
}

func walFile(sid string, gen uint64) string {
	return fmt.Sprintf("wal-%s-%016x.log", storage.FileBase(sid), gen)
}

// makeSynthSpec builds the deterministic synthetic spec + policy used by
// the derived-state tests (same shape as multiSpecRepo's fixture).
func makeSynthSpec(t testing.TB, seed int64, id string) (*privacy.Policy, func(r *Repository)) {
	t.Helper()
	s, err := workload.RandomSpec(workload.SpecConfig{
		Seed: seed, ID: id, Depth: 3, Fanout: 2, Chain: 4, SkipProb: 0.2,
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
	return pol, func(r *Repository) {
		if err := r.AddSpec(s, pol); err != nil {
			t.Fatalf("AddSpec(%s): %v", id, err)
		}
	}
}

// TestCorpusDeltaMatchesRebuild: after a repository that has served
// searches absorbs spec additions and removals, its ranking output must
// be identical to a repository built from scratch with the same final
// spec set.
func TestCorpusDeltaMatchesRebuild(t *testing.T) {
	r := New()
	for i := 0; i < 6; i++ {
		_, add := makeSynthSpec(t, int64(i), fmt.Sprintf("s%d", i))
		add(r)
	}
	for _, u := range []privacy.User{
		{Name: "pub", Level: privacy.Public, Group: "g0"},
		{Name: "reg", Level: privacy.Registered, Group: "g1"},
		{Name: "ana", Level: privacy.Analyst, Group: "g2"},
	} {
		r.AddUser(u)
	}
	for _, u := range []string{"pub", "reg", "ana"} {
		if _, err := r.Search(u, "query", SearchOptions{}); err != nil {
			t.Fatalf("warm search: %v", err)
		}
	}

	// Mutate: add two specs, remove one, replace nothing.
	_, add6 := makeSynthSpec(t, 100, "s6")
	add6(r)
	_, add7 := makeSynthSpec(t, 101, "s7")
	add7(r)
	if err := r.RemoveSpec("s1"); err != nil {
		t.Fatalf("RemoveSpec: %v", err)
	}

	// From-scratch reference with the same final content.
	r2 := New()
	for _, spec := range []struct {
		seed int64
		id   string
	}{{0, "s0"}, {2, "s2"}, {3, "s3"}, {4, "s4"}, {5, "s5"}, {100, "s6"}, {101, "s7"}} {
		_, add := makeSynthSpec(t, spec.seed, spec.id)
		add(r2)
	}
	for _, u := range []privacy.User{
		{Name: "pub", Level: privacy.Public, Group: "g0"},
		{Name: "reg", Level: privacy.Registered, Group: "g1"},
		{Name: "ana", Level: privacy.Analyst, Group: "g2"},
	} {
		r2.AddUser(u)
	}

	for _, user := range []string{"pub", "reg", "ana"} {
		for _, q := range []string{"query", "database", "filter, merge"} {
			h1, err1 := r.Search(user, q, SearchOptions{})
			h2, err2 := r2.Search(user, q, SearchOptions{})
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s %q: error mismatch %v vs %v", user, q, err1, err2)
			}
			if len(h1) != len(h2) {
				t.Fatalf("%s %q: %d hits (churned) vs %d (fresh)", user, q, len(h1), len(h2))
			}
			for i := range h1 {
				if h1[i].SpecID != h2[i].SpecID || h1[i].Score != h2[i].Score {
					t.Fatalf("%s %q hit %d: (%s,%v) churned vs (%s,%v) fresh",
						user, q, i, h1[i].SpecID, h1[i].Score, h2[i].SpecID, h2[i].Score)
				}
			}
		}
	}
}

// TestUpdatePolicyReclassifies: a policy change that reclassifies module
// levels must change what a low-privilege search can see.
func TestUpdatePolicyReclassifies(t *testing.T) {
	r := seededRepo(t) // module M6 ("omim") requires Owner
	if hits, err := r.Search("bob", "omim", SearchOptions{}); err == nil && len(hits) > 0 {
		t.Fatalf("public user found owner-level term before update: %v", hits)
	}
	// Serve a public search, then reclassify everything public.
	if _, err := r.Search("bob", "database", SearchOptions{}); err != nil {
		t.Fatalf("warm search: %v", err)
	}
	if err := r.UpdatePolicy("disease-susceptibility", nil); err != nil {
		t.Fatalf("UpdatePolicy: %v", err)
	}
	hits, err := r.Search("bob", "omim", SearchOptions{})
	if err != nil || len(hits) == 0 {
		t.Fatalf("public user still blind after all-public policy: %v, %v", hits, err)
	}
	if err := r.UpdatePolicy("ghost", nil); err == nil {
		t.Fatal("UpdatePolicy on unknown spec accepted")
	}
}

// TestSearchMutateChurnNoStalePostings is the ISSUE's mutate-while-
// search stress test (run under -race): one goroutine churns specs
// in and out of the repository while readers hammer Search; after each
// RemoveSpec returns, an immediate search must not surface the removed
// spec — the swapped index snapshot guarantees it.
func TestSearchMutateChurnNoStalePostings(t *testing.T) {
	r := New()
	for i := 0; i < 4; i++ {
		_, add := makeSynthSpec(t, int64(i), fmt.Sprintf("s%d", i))
		add(r)
	}
	r.AddUser(privacy.User{Name: "ana", Level: privacy.Analyst, Group: "g"})
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 12; i++ {
			sid := fmt.Sprintf("churn%d", i)
			_, add := makeSynthSpec(t, int64(500+i), sid)
			add(r)
			if err := r.RemoveSpec(sid); err != nil {
				t.Errorf("RemoveSpec: %v", err)
				return
			}
			// The hard guarantee: the mutation thread has seen
			// RemoveSpec return, so its own search must never surface
			// the spec again.
			hits, err := r.Search("ana", "query", SearchOptions{})
			if err != nil {
				continue // all-phrase miss is legal mid-churn
			}
			for _, h := range hits {
				if h.SpecID == sid {
					t.Errorf("stale hit for removed spec %s", sid)
					return
				}
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				hits, err := r.Search("ana", "query, filter", SearchOptions{})
				if err != nil {
					continue
				}
				for _, h := range hits {
					if h.Result == nil {
						t.Error("hit without result")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSaveIncremental verifies dirty-shard tracking: a second Save to
// the same directory rewrites only shards mutated in between (and the
// manifest), and leaves no temp files behind.
func TestSaveIncremental(t *testing.T) {
	r := New()
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("s%d", i)
		_, add := makeSynthSpec(t, int64(i), id)
		add(r)
		s := r.Spec(id)
		e, err := exec.NewRunner(s, nil).Run(id+"-E0", workload.RandomInputs(s, int64(i)))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if err := r.AddExecution(e); err != nil {
			t.Fatalf("AddExecution: %v", err)
		}
	}
	dir := t.TempDir()
	if err := r.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	// Rewind every file's mtime so rewrites are observable.
	epoch := time.Unix(0, 0)
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.Contains(f.Name(), ".tmp") {
			t.Fatalf("temp file left behind: %s", f.Name())
		}
		if err := os.Chtimes(filepath.Join(dir, f.Name()), epoch, epoch); err != nil {
			t.Fatal(err)
		}
	}
	// Mutate only s1: three runs of the shape the store holds s1-E0 of, and
	// two of a shape it has not seen, whose first sorts after the second.
	for _, e := range shapedRuns(t, r.Spec("s1"), "s1", 99) {
		if err := r.AddExecution(e); err != nil {
			t.Fatalf("AddExecution: %v", err)
		}
	}
	if err := r.Save(dir); err != nil {
		t.Fatalf("second Save: %v", err)
	}
	rewritten := func(name string) bool {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("stat %s: %v", name, err)
		}
		return st.ModTime().After(epoch)
	}
	// The first Save checkpointed every shard at generation 1; the
	// incremental save must leave clean shards' checkpoints untouched
	// and only append the new execution to s1's log.
	for _, clean := range []string{"s0", "s2"} {
		if rewritten(ckptFile(clean, 1)) {
			t.Fatalf("clean shard %s rewritten", clean)
		}
	}
	if rewritten(ckptFile("s1", 1)) {
		t.Fatal("dirty shard s1's checkpoint rewritten instead of appended to")
	}
	if !rewritten(walFile("s1", 1)) {
		t.Fatal("new execution not appended to s1's log")
	}
	if !rewritten("manifest.json") {
		t.Fatal("manifest not rewritten")
	}
	// The incrementally saved directory loads back completely.
	r2, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got, want := content(r2.Stats()), content(r.Stats()); got != want {
		t.Fatalf("round trip after incremental save: %+v vs %+v", got, want)
	}
	sameStored(t, r, r2)
	// The append named s1-E0 from the checkpoint and carried the new shape's
	// first execution in full, ahead of the one that names it.
	if k := storedRecords(t, dir); k[storage.RecExec] != 4 || k[storage.RecValues] != 4 {
		t.Fatalf("stored %d full and %d value records, want 4 and 4", k[storage.RecExec], k[storage.RecValues])
	}
	// Saving to a different directory starts from scratch and is
	// complete too.
	dir2 := t.TempDir()
	if err := r.Save(dir2); err != nil {
		t.Fatalf("Save to new dir: %v", err)
	}
	if _, err := Load(dir2); err != nil {
		t.Fatalf("Load from new dir: %v", err)
	}
}

// TestSaveAfterRemoveAndReadd guards the incremental-save bookkeeping
// against seq collisions: removing a spec and re-adding a different one
// under the same id between two saves must persist the new content
// (shard seqs are globally unique, so the second Save cannot mistake
// the new shard for the old one).
func TestSaveAfterRemoveAndReadd(t *testing.T) {
	r := New()
	s1, err := workload.RandomSpec(workload.SpecConfig{
		Seed: 1, ID: "s", Depth: 3, Fanout: 2, Chain: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddSpec(s1, nil); err != nil {
		t.Fatal(err)
	}
	addRuns := func(s *workflow.Spec, seed int64) {
		t.Helper()
		for _, e := range shapedRuns(t, s, "s", seed) {
			if err := r.AddExecution(e); err != nil {
				t.Fatalf("AddExecution: %v", err)
			}
		}
	}
	addRuns(s1, 1)
	dir := t.TempDir()
	if err := r.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Replace with a structurally different spec under the same id.
	if err := r.RemoveSpec("s"); err != nil {
		t.Fatal(err)
	}
	s2, err := workload.RandomSpec(workload.SpecConfig{
		Seed: 2, ID: "s", Depth: 2, Fanout: 1, Chain: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Workflows) == len(s1.Workflows) {
		t.Fatal("fixture specs must differ structurally")
	}
	if err := r.AddSpec(s2, nil); err != nil {
		t.Fatal(err)
	}
	// The same execution ids, now runs of the other spec: a value record
	// naming one of the ids the store held for the removed shard would be
	// built over the wrong graph.
	addRuns(s2, 2)
	if err := r.Save(dir); err != nil {
		t.Fatal(err)
	}
	r2, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	sameStored(t, r, r2)
	got := r2.Spec("s")
	if got == nil || len(got.Workflows) != len(s2.Workflows) {
		t.Fatalf("stale spec persisted: got %d workflows, want %d",
			len(got.Workflows), len(s2.Workflows))
	}
}

// TestUpdatePolicyConcurrentQueries races UpdatePolicy against every
// policy-reading query path (run under -race): each operation must see
// one coherent policy, old or new, and never fail with an internal
// error.
func TestUpdatePolicyConcurrentQueries(t *testing.T) {
	r := seededRepo(t)
	strict := func() *privacy.Policy {
		pol := privacy.NewPolicy("disease-susceptibility")
		pol.DataLevels["snps"] = privacy.Owner
		pol.ModuleLevels["M6"] = privacy.Owner
		pol.ViewGrants[privacy.Registered] = []string{"W2"}
		pol.ViewGrants[privacy.Analyst] = []string{"W3", "W4"}
		return pol
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 10; i++ {
			var pol *privacy.Policy // all-public
			if i%2 == 0 {
				pol = strict()
			}
			if err := r.UpdatePolicy("disease-susceptibility", pol); err != nil {
				t.Errorf("UpdatePolicy: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			users := []string{"alice", "bob", "carol"}
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				u := users[i%3]
				if _, err := r.Search(u, "database", SearchOptions{}); err != nil {
					t.Errorf("Search: %v", err)
					return
				}
				if _, err := r.Query(u, "disease-susceptibility", "E1", `MATCH a = "reformat"`); err != nil {
					t.Errorf("Query: %v", err)
					return
				}
				if _, err := r.Reaches(u, "disease-susceptibility", "M12", "M11"); err != nil {
					t.Errorf("Reaches: %v", err)
					return
				}
				if _, err := r.QueryAll(u, "disease-susceptibility", `MATCH a = "reformat"`); err != nil {
					t.Errorf("QueryAll: %v", err)
					return
				}
				if r.policy("disease-susceptibility") == nil {
					t.Error("nil policy mid-update")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSavePrunesRemovedSpecFiles: a Save after RemoveSpec deletes the
// removed spec's on-disk files instead of leaving orphans forever.
func TestSavePrunesRemovedSpecFiles(t *testing.T) {
	r := New()
	for i := 0; i < 2; i++ {
		_, add := makeSynthSpec(t, int64(i), fmt.Sprintf("s%d", i))
		add(r)
	}
	dir := t.TempDir()
	if err := r.Save(dir); err != nil {
		t.Fatal(err)
	}
	goneSpec := filepath.Join(dir, ckptFile("s1", 1))
	if _, err := os.Stat(goneSpec); err != nil {
		t.Fatalf("expected %s to exist: %v", goneSpec, err)
	}
	if err := r.RemoveSpec("s1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(goneSpec); !os.IsNotExist(err) {
		t.Fatalf("removed spec's file still on disk: %v", err)
	}
	for _, keep := range []string{ckptFile("s0", 1), "manifest.json"} {
		if _, err := os.Stat(filepath.Join(dir, keep)); err != nil {
			t.Fatalf("live file %s pruned: %v", keep, err)
		}
	}
	if _, err := Load(dir); err != nil {
		t.Fatalf("Load after prune: %v", err)
	}
}
