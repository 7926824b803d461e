package repo

// Tests for the masked-execution snapshot cache: warm reads serve a
// shared immutable snapshot, policy/hierarchy mutations evict it, shard
// removal keeps the counters monotone, and concurrent readers of one
// snapshot can never observe each other's activity.

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"provpriv/internal/datapriv"
	"provpriv/internal/exec"
	"provpriv/internal/privacy"
)

func itemByAttr(t *testing.T, r *Repository, attr string) string {
	t.Helper()
	e := r.execution("disease-susceptibility", "E1")
	for id, it := range e.Items {
		if it.Attr == attr {
			return id
		}
	}
	t.Fatalf("no %s item", attr)
	return ""
}

// TestMaskedCacheServesWarmReads: the first enforced read misses and
// fills; repeats at the same level hit without re-masking, and a
// different level fills its own slot.
func TestMaskedCacheServesWarmReads(t *testing.T) {
	r := seededRepo(t)
	progID := itemByAttr(t, r, "prognosis")
	if _, err := r.Provenance("bob", "disease-susceptibility", "E1", progID); err != nil {
		t.Fatalf("Provenance: %v", err)
	}
	st := r.Stats()
	if st.MaskedCacheMisses == 0 {
		t.Fatalf("first read did not miss: %+v", st)
	}
	if st.MaskedCacheHits != 0 {
		t.Fatalf("phantom hit before warm read: %+v", st)
	}
	for i := 0; i < 3; i++ {
		if _, err := r.Provenance("bob", "disease-susceptibility", "E1", progID); err != nil {
			t.Fatalf("warm Provenance: %v", err)
		}
	}
	// A query reads the masked snapshot only when it returns provenance.
	if _, err := r.Query("bob", "disease-susceptibility", "E1", `MATCH a = "disease" RETURN provenance(a)`); err != nil {
		t.Fatalf("Query: %v", err)
	}
	st2 := r.Stats()
	if st2.MaskedCacheHits < 4 {
		t.Fatalf("warm reads did not hit the masked cache: hits=%d", st2.MaskedCacheHits)
	}
	if st2.MaskedCacheMisses != st.MaskedCacheMisses {
		t.Fatalf("warm reads missed again: %d -> %d", st.MaskedCacheMisses, st2.MaskedCacheMisses)
	}
	// A different level is a different snapshot.
	if _, err := r.Provenance("alice", "disease-susceptibility", "E1", progID); err != nil {
		t.Fatalf("owner Provenance: %v", err)
	}
	if st3 := r.Stats(); st3.MaskedCacheMisses <= st2.MaskedCacheMisses {
		t.Fatalf("owner-level read served from public snapshot: %+v", st3)
	}
	if _, ok := r.Stats().MaskedCache["disease-susceptibility"]; !ok {
		t.Fatal("per-shard masked cache stats missing")
	}
}

// TestMaskedCacheInvalidationOnUpdatePolicy: a policy update must evict
// masked snapshots — a reader after the update may never see a mask
// computed under the old policy, in either direction (newly public stays
// rewritten-free, newly protected is rewritten).
func TestMaskedCacheInvalidationOnUpdatePolicy(t *testing.T) {
	r := seededRepo(t)
	progID := itemByAttr(t, r, "prognosis")
	prov, err := r.Provenance("bob", "disease-susceptibility", "E1", progID)
	if err != nil {
		t.Fatalf("Provenance: %v", err)
	}
	if v := string(prov.Items[progID].Value); strings.Contains(v, "rs1") {
		t.Fatalf("pre-update leak: %q", v)
	}
	// Warm the cache, then drop all protection.
	if _, err := r.Provenance("bob", "disease-susceptibility", "E1", progID); err != nil {
		t.Fatal(err)
	}
	open := privacy.NewPolicy("disease-susceptibility")
	if err := r.UpdatePolicy("disease-susceptibility", open); err != nil {
		t.Fatalf("UpdatePolicy: %v", err)
	}
	prov, err = r.Provenance("bob", "disease-susceptibility", "E1", progID)
	if err != nil {
		t.Fatalf("post-update Provenance: %v", err)
	}
	if v := string(prov.Items[progID].Value); !strings.Contains(v, "rs1") {
		t.Fatalf("stale pre-update mask served after policy opened everything: %q", v)
	}
	// And back: re-protecting must evict the open snapshot.
	closed := privacy.NewPolicy("disease-susceptibility")
	closed.DataLevels["snps"] = privacy.Owner
	if err := r.UpdatePolicy("disease-susceptibility", closed); err != nil {
		t.Fatalf("UpdatePolicy: %v", err)
	}
	prov, err = r.Provenance("bob", "disease-susceptibility", "E1", progID)
	if err != nil {
		t.Fatalf("re-protected Provenance: %v", err)
	}
	if v := string(prov.Items[progID].Value); strings.Contains(v, "rs1") {
		t.Fatalf("stale open snapshot served after re-protection: %q", v)
	}
}

// TestMaskedCacheInvalidationOnSetGeneralization: installing ladders
// changes what masking emits, so cached snapshots must go.
func TestMaskedCacheInvalidationOnSetGeneralization(t *testing.T) {
	r := seededRepo(t)
	snpID := itemByAttr(t, r, "snps")
	progID := itemByAttr(t, r, "prognosis")
	// Warm the public snapshot: snps fully redacted (no ladder). The
	// snps item is an ancestor of prognosis, so it is always present in
	// this provenance.
	before, err := r.Provenance("bob", "disease-susceptibility", "E1", progID)
	if err != nil {
		t.Fatal(err)
	}
	if it := before.Items[snpID]; it == nil || !it.Redacted {
		t.Fatalf("snps not redacted without ladder: %+v", it)
	}
	err = r.SetGeneralization("disease-susceptibility", map[string]*datapriv.Hierarchy{
		"snps": {Attr: "snps", Levels: []map[exec.Value]exec.Value{{"rs1": "chr-region"}}},
	})
	if err != nil {
		t.Fatalf("SetGeneralization: %v", err)
	}
	after, err := r.Provenance("bob", "disease-susceptibility", "E1", progID)
	if err != nil {
		t.Fatal(err)
	}
	if it := after.Items[snpID]; it == nil || it.Redacted || it.Value != "chr-region" {
		t.Fatalf("stale redaction served after ladder install: %+v", it)
	}
}

// TestMaskedCacheMonotoneAcrossRemoveSpec: the hit and miss totals of the
// enforced-view cache never regress — not when an install replaces the
// generation whose cache was being counted (the counters are the shard's),
// not when RemoveSpec takes the shard (it banks them), not when the id is
// registered again — and they keep counting at every stage.
func TestMaskedCacheMonotoneAcrossRemoveSpec(t *testing.T) {
	r := seededRepo(t)
	spec, e := r.Spec(diseaseID), r.execution(diseaseID, "E1")
	progID := itemByAttr(t, r, "prognosis")
	last := r.Stats()
	stage := func(name string, reads int) {
		t.Helper()
		for i := 0; i < reads; i++ {
			for _, user := range []string{"bob", "alice"} {
				if _, err := r.Provenance(user, diseaseID, "E1", progID); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
		st := r.Stats()
		counters := func(st Stats) [2]int64 {
			return [2]int64{st.MaskedCacheHits, st.MaskedCacheMisses}
		}
		was, now := counters(last), counters(st)
		for i := range now {
			if now[i] < was[i] || (reads > 0 && now[i] == was[i]) {
				t.Fatalf("%s: (masked hits, masked misses) went %v -> %v after %d reads", name, was, now, reads)
			}
		}
		last = st
	}
	stage("as registered", 3)
	if err := r.UpdatePolicy(diseaseID, privacy.NewPolicy(diseaseID)); err != nil {
		t.Fatalf("UpdatePolicy: %v", err)
	}
	stage("after UpdatePolicy", 0)
	if got := r.Stats().MaskedCache[diseaseID]; got.Entries != 0 || got.Hits == 0 {
		t.Fatalf("after UpdatePolicy the shard reports %+v, want its counts kept and no entries", got)
	}
	stage("new generation", 2)
	if err := r.RemoveSpec(diseaseID); err != nil {
		t.Fatalf("RemoveSpec: %v", err)
	}
	stage("after RemoveSpec", 0)
	if after := r.Stats(); len(after.MaskedCache) != 0 || after.MaskedCacheEntries != 0 {
		t.Fatalf("removed shard still listed: %+v", after.MaskedCache)
	}
	if err := r.AddSpec(spec, nil); err != nil {
		t.Fatalf("re-AddSpec: %v", err)
	}
	if err := r.AddExecution(e); err != nil {
		t.Fatalf("re-AddExecution: %v", err)
	}
	stage("re-added", 2)
}

// TestMaskedSnapshotImmutableConcurrentReaders is the aliasing guard of
// the snapshot design, meaningful under -race: many goroutines serve
// query, provenance and a JSON render from the cached snapshots of two
// executions of one shape — which share their plan's nodes, edges, graph,
// closure and indexes, and own only their values — while others mutate the
// sub-executions they received back. Every reader must observe
// byte-identical results; any hidden shared mutable state (a lazily
// memoized index, an aliased item or node) trips the race detector.
func TestMaskedSnapshotImmutableConcurrentReaders(t *testing.T) {
	r := seededRepo(t)
	progID := itemByAttr(t, r, "prognosis")
	e2, err := exec.NewRunner(r.Spec(diseaseID), nil).Run("E2", map[string]exec.Value{
		"snps": "rs2", "ethnicity": "eth2", "lifestyle": "idle",
		"family_history": "fh2", "symptoms": "some",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := r.AddExecution(e2); err != nil {
		t.Fatalf("AddExecution: %v", err)
	}
	// Warm both public snapshots once so every goroutine shares them.
	execIDs := [2]string{"E1", "E2"}
	var refJSON [2]string
	for i, id := range execIDs {
		ref, err := r.Provenance("bob", diseaseID, id, progID)
		if err != nil {
			t.Fatalf("Provenance: %v", err)
		}
		data, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		refJSON[i] = string(data)
	}
	sh := r.shard(diseaseID)
	s1, err1 := sh.maskedExec(context.Background(), sh.current(), r.stored(diseaseID, "E1"), privacy.Public)
	s2, err2 := sh.maskedExec(context.Background(), sh.current(), r.stored(diseaseID, e2.ID), privacy.Public)
	if err1 != nil || err2 != nil || s1.Plan != s2.Plan {
		t.Fatalf("the two snapshots do not share one plan (%v, %v)", err1, err2)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers*4)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				which := (w + i/3) % 2
				switch (w + i) % 3 {
				case 0:
					prov, err := r.Provenance("bob", diseaseID, execIDs[which], progID)
					if err != nil {
						errs <- err.Error()
						return
					}
					got, err := json.Marshal(prov)
					if err != nil {
						errs <- err.Error()
						return
					}
					if string(got) != refJSON[which] {
						errs <- "provenance bytes changed across concurrent reads"
						return
					}
					// Scribble over the returned copy: it must be ours alone.
					for _, it := range prov.Items {
						it.Value = "scribbled"
						it.Redacted = false
					}
					for _, n := range prov.Nodes {
						n.ID = "gone"
					}
				case 1:
					ans, err := r.Query("bob", diseaseID, execIDs[which],
						`MATCH a = "disease" RETURN provenance(a)`)
					if err != nil {
						errs <- err.Error()
						return
					}
					for _, p := range ans.Provenance {
						for _, it := range p.Items {
							it.Value = "scribbled"
						}
						for _, n := range p.Nodes {
							n.Module = "gone"
						}
					}
				case 2:
					if _, err := r.QueryAll("bob", diseaseID,
						`MATCH a = "disease" RETURN bindings`); err != nil {
						errs <- err.Error()
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	// After all the scribbling, a fresh read still serves clean bytes.
	for i, id := range execIDs {
		final, err := r.Provenance("bob", diseaseID, id, progID)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := json.Marshal(final); string(got) != refJSON[i] {
			t.Fatalf("caller mutation of a returned provenance of %s leaked into the cached snapshots", id)
		}
	}
}
