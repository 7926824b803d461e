package repo

// Tests for the warm use of the masked-snapshot cache: a snapshot read
// once (warm, in helpers_test.go) is served again from the cache by the
// same maskedExec that filled it, so warm answers must equal cold ones,
// equal an uncached reference, and stay correct across later mutations.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"provpriv/internal/datapriv"
	"provpriv/internal/exec"
	"provpriv/internal/privacy"
)

const diseaseID = "disease-susceptibility"

// allLevels are the access levels the warm-cache tests read at.
var allLevels = []privacy.Level{privacy.Public, privacy.Registered, privacy.Analyst, privacy.Owner}

// snpsLadder is the generalization fixture: rs1 → chr1 → genome.
func snpsLadder() map[string]*datapriv.Hierarchy {
	return map[string]*datapriv.Hierarchy{
		"snps": {Attr: "snps", Levels: []map[exec.Value]exec.Value{
			{"rs1": "chr1"},
			{"chr1": "genome"},
		}},
	}
}

// assertSameItems fails unless b carries every item of a with the same
// value and redaction flag.
func assertSameItems(t *testing.T, ctx string, a, b *exec.Execution) {
	t.Helper()
	if got, want := fmt.Sprint(b.NodeIDs()), fmt.Sprint(a.NodeIDs()); got != want {
		t.Fatalf("%s: node sets differ:\n%s\n%s", ctx, want, got)
	}
	if len(a.Items) != len(b.Items) {
		t.Fatalf("%s: item counts differ: %d vs %d", ctx, len(a.Items), len(b.Items))
	}
	for id, it := range a.Items {
		bit := b.Items[id]
		if bit == nil || bit.Redacted != it.Redacted || bit.Value != it.Value {
			t.Fatalf("%s: item %s differs: %+v vs %+v", ctx, id, it, bit)
		}
	}
}

func TestMaterializedProvenanceMatchesOnTheFly(t *testing.T) {
	// Two identical repositories, one read warm — answers must agree,
	// and the warm one must answer without a single cold fill.
	plain := seededRepo(t)
	mat := seededRepo(t)
	warm(t, mat, diseaseID, []privacy.Level{privacy.Public, privacy.Analyst})
	misses := mat.Stats().MaskedCacheMisses
	progID := itemByAttr(t, plain, "prognosis")
	for _, user := range []string{"bob", "carol"} { // public, analyst
		a, errA := plain.Provenance(user, diseaseID, "E1", progID)
		b, errB := mat.Provenance(user, diseaseID, "E1", progID)
		if errA != nil || errB != nil {
			t.Fatalf("%s: Provenance: %v / %v", user, errA, errB)
		}
		assertSameItems(t, user, a, b)
	}
	if got := mat.Stats().MaskedCacheMisses; got != misses {
		t.Fatalf("warm reads filled cold: misses %d -> %d", misses, got)
	}
}

// TestMaterializationCoversNewExecutions: an execution ingested after the
// cache was warmed has no snapshot yet; its first read must fill it, masked.
func TestMaterializationCoversNewExecutions(t *testing.T) {
	r := seededRepo(t)
	warm(t, r, diseaseID, []privacy.Level{privacy.Public})
	spec := r.Spec(diseaseID)
	e2, err := exec.NewRunner(spec, nil).Run("E2", map[string]exec.Value{
		"snps": "rs9", "ethnicity": "eth2", "lifestyle": "sedentary",
		"family_history": "none", "symptoms": "cough",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := r.AddExecution(e2); err != nil {
		t.Fatalf("AddExecution: %v", err)
	}
	var progID string
	for id, it := range e2.Items {
		if it.Attr == "prognosis" {
			progID = id
		}
	}
	prov, err := r.Provenance("bob", diseaseID, "E2", progID)
	if err != nil {
		t.Fatalf("Provenance: %v", err)
	}
	if len(prov.Nodes) == 0 {
		t.Fatal("empty provenance for an execution ingested after the warm-up")
	}
	for id, it := range prov.Items {
		if strings.Contains(string(it.Value), "rs9") {
			t.Fatalf("item %s of the execution ingested after the warm-up leaks rs9: %q", id, it.Value)
		}
	}
}

// TestMaterializationHidesInternalItems: an item internal to a composite
// the level sees collapsed stays hidden, cold and warm alike.
func TestMaterializationHidesInternalItems(t *testing.T) {
	for _, warmed := range []bool{false, true} {
		r := seededRepo(t)
		if warmed {
			warm(t, r, diseaseID, []privacy.Level{privacy.Public})
		}
		internalID := itemByAttr(t, r, "snp_set")
		if _, err := r.Provenance("bob", diseaseID, "E1", internalID); err == nil {
			t.Fatalf("internal item visible (warm=%v)", warmed)
		}
	}
}

// assertSnapshotMatchesReference compares, for every level, the cached
// snapshot with the same view computed directly — Collapse + MaskView on
// a fresh masker, no cache, flight group or shard engine involved.
func assertSnapshotMatchesReference(t *testing.T, r *Repository, hs map[string]*datapriv.Hierarchy) {
	t.Helper()
	sh := r.shard(diseaseID)
	e := r.execution(diseaseID, "E1")
	pol := sh.current().pol
	for _, lvl := range allLevels {
		collapsed, err := exec.Collapse(e, sh.spec, pol.AccessView(sh.hier, lvl))
		if err != nil {
			t.Fatalf("level %v: Collapse: %v", lvl, err)
		}
		want, _ := datapriv.NewMasker(pol, hs).MaskView(e, collapsed, lvl)
		hits := sh.maskedHits.Load()
		snap, err := sh.maskedExec(context.Background(), sh.current(), r.stored(diseaseID, "E1"), lvl)
		if err != nil {
			t.Fatalf("level %v: maskedExec: %v", lvl, err)
		}
		if after := sh.maskedHits.Load(); after == hits {
			t.Fatalf("level %v: snapshot was not served from the warm cache", lvl)
		}
		assertSameItems(t, fmt.Sprintf("level %v", lvl), want, materialized(snap.Snapshot))
	}
}

// TestViewSnapshotMaskingParity: the cached snapshot of every level
// must equal the uncached reference view — in both mutation orders
// (ladders before the warm-up, and ladders installed into an already
// warm shard, which must drop the warm snapshots).
func TestViewSnapshotMaskingParity(t *testing.T) {
	t.Run("generalize-then-materialize", func(t *testing.T) {
		r := seededRepo(t)
		if err := r.SetGeneralization(diseaseID, snpsLadder()); err != nil {
			t.Fatalf("SetGeneralization: %v", err)
		}
		warm(t, r, diseaseID, allLevels)
		assertSnapshotMatchesReference(t, r, snpsLadder())
	})
	t.Run("materialize-then-generalize", func(t *testing.T) {
		r := seededRepo(t)
		warm(t, r, diseaseID, allLevels)
		if err := r.SetGeneralization(diseaseID, snpsLadder()); err != nil {
			t.Fatalf("SetGeneralization: %v", err)
		}
		warm(t, r, diseaseID, allLevels)
		assertSnapshotMatchesReference(t, r, snpsLadder())
	})
	t.Run("no-ladders", func(t *testing.T) {
		r := seededRepo(t)
		warm(t, r, diseaseID, allLevels)
		assertSnapshotMatchesReference(t, r, nil)
	})
}

// TestMaterializedGeneralizedProvenance is the end-to-end shape of the
// same contract: a below-level user's provenance carries the
// generalized value, not a redaction, whether the ladders arrive before
// the warm-up or after it (when the already-warm snapshots were built
// without them and must not be served).
func TestMaterializedGeneralizedProvenance(t *testing.T) {
	before := seededRepo(t)
	if err := before.SetGeneralization(diseaseID, snpsLadder()); err != nil {
		t.Fatalf("SetGeneralization: %v", err)
	}
	warm(t, before, diseaseID, allLevels)
	after := seededRepo(t)
	warm(t, after, diseaseID, allLevels)
	if err := after.SetGeneralization(diseaseID, snpsLadder()); err != nil {
		t.Fatalf("SetGeneralization: %v", err)
	}
	progID := itemByAttr(t, before, "prognosis")
	snpID := itemByAttr(t, before, "snps")
	for name, r := range map[string]*Repository{"ladders-then-warm": before, "warm-then-ladders": after} {
		// carol (analyst, one level short of owner) sees chr1.
		prov, err := r.Provenance("carol", diseaseID, "E1", progID)
		if err != nil {
			t.Fatalf("%s: Provenance: %v", name, err)
		}
		it := prov.Items[snpID]
		if it == nil || it.Redacted || it.Value != "chr1" {
			t.Fatalf("%s: analyst snps = %+v, want generalized chr1", name, it)
		}
	}
}
