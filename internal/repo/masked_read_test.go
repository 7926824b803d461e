package repo

// Tests for reads of masked executions: a read after a policy or hierarchy
// mutation is masked under what is installed then, and concurrent readers
// of snapshots sharing one plan can never observe each other's activity.

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

// TestMaskedCacheInvalidationOnUpdatePolicy: a reader after a policy update
// may never see a mask computed under the old policy, in either direction
// (newly public is shown, newly protected is rewritten).
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
	// Drop all protection.
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
	// And back: re-protected, the value is masked again.
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
// changes what masking emits, for the next read.
func TestMaskedCacheInvalidationOnSetGeneralization(t *testing.T) {
	r := seededRepo(t)
	snpID := itemByAttr(t, r, "snps")
	progID := itemByAttr(t, r, "prognosis")
	// Without a ladder the public read redacts snps fully. The snps item
	// is an ancestor of prognosis, so it is always present in this
	// provenance.
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

// TestMaskedSnapshotImmutableConcurrentReaders is the aliasing guard of
// the snapshot design, meaningful under -race: many goroutines serve
// query, provenance and a JSON render from the snapshots of two executions
// of one shape — which share their plan's nodes, edges, graph, closure and
// indexes, and own only their values — while others mutate the
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
	// Read both public snapshots once: the references, and the plan every
	// goroutine then shares.
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
	s1, err1 := r.enforced(context.Background(), sh, sh.current(), r.stored(diseaseID, "E1"), privacy.Public)
	s2, err2 := r.enforced(context.Background(), sh, sh.current(), r.stored(diseaseID, e2.ID), privacy.Public)
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
			t.Fatalf("caller mutation of a returned provenance of %s leaked into the shared plan", id)
		}
	}
}
