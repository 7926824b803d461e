package repo

// Tests for repeated reads of enforced views: a snapshot filled once
// (fillEvery, in helpers_test.go) leaves nothing a later read is served
// from, so answers after earlier reads must equal first answers, equal a
// reference computed apart from the shard, and stay correct across later
// mutations.

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

// allLevels are the access levels the fill tests read at.
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
	// Two identical repositories, one read before: answers must agree.
	plain := seededRepo(t)
	mat := seededRepo(t)
	fillEvery(t, mat, diseaseID, []privacy.Level{privacy.Public, privacy.Analyst})
	progID := itemByAttr(t, plain, "prognosis")
	for _, user := range []string{"bob", "carol"} { // public, analyst
		a, errA := plain.Provenance(user, diseaseID, "E1", progID)
		b, errB := mat.Provenance(user, diseaseID, "E1", progID)
		if errA != nil || errB != nil {
			t.Fatalf("%s: Provenance: %v / %v", user, errA, errB)
		}
		assertSameItems(t, user, a, b)
	}
}

// TestMaterializationCoversNewExecutions: an execution ingested after the
// others were read is filled, masked, on its first read.
func TestMaterializationCoversNewExecutions(t *testing.T) {
	r := seededRepo(t)
	fillEvery(t, r, diseaseID, []privacy.Level{privacy.Public})
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
// the level sees collapsed stays hidden, on a first read and a later one.
func TestMaterializationHidesInternalItems(t *testing.T) {
	for _, warmed := range []bool{false, true} {
		r := seededRepo(t)
		if warmed {
			fillEvery(t, r, diseaseID, []privacy.Level{privacy.Public})
		}
		internalID := itemByAttr(t, r, "snp_set")
		if _, err := r.Provenance("bob", diseaseID, "E1", internalID); err == nil {
			t.Fatalf("internal item visible (warm=%v)", warmed)
		}
	}
}

// assertSnapshotMatchesReference compares, for every level, the filled
// snapshot with the same view computed directly — Collapse + MaskView on
// a fresh masker, no view plan or shard engine involved.
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
		snap, err := r.enforced(context.Background(), sh, sh.current(), r.stored(diseaseID, "E1"), lvl)
		if err != nil {
			t.Fatalf("level %v: fill: %v", lvl, err)
		}
		assertSameItems(t, fmt.Sprintf("level %v", lvl), want, materialized(snap))
	}
}

// TestViewSnapshotMaskingParity: the filled snapshot of every level
// must equal the reference view — in both mutation orders (ladders before
// the first reads, and ladders installed into a shard already read, whose
// earlier snapshots were masked without them).
func TestViewSnapshotMaskingParity(t *testing.T) {
	t.Run("generalize-then-materialize", func(t *testing.T) {
		r := seededRepo(t)
		if err := r.SetGeneralization(diseaseID, snpsLadder()); err != nil {
			t.Fatalf("SetGeneralization: %v", err)
		}
		fillEvery(t, r, diseaseID, allLevels)
		assertSnapshotMatchesReference(t, r, snpsLadder())
	})
	t.Run("materialize-then-generalize", func(t *testing.T) {
		r := seededRepo(t)
		fillEvery(t, r, diseaseID, allLevels)
		if err := r.SetGeneralization(diseaseID, snpsLadder()); err != nil {
			t.Fatalf("SetGeneralization: %v", err)
		}
		fillEvery(t, r, diseaseID, allLevels)
		assertSnapshotMatchesReference(t, r, snpsLadder())
	})
	t.Run("no-ladders", func(t *testing.T) {
		r := seededRepo(t)
		fillEvery(t, r, diseaseID, allLevels)
		assertSnapshotMatchesReference(t, r, nil)
	})
}

// TestMaterializedGeneralizedProvenance is the end-to-end shape of the
// same contract: a below-level user's provenance carries the
// generalized value, not a redaction, whether the ladders arrive before
// the first reads or after them (when the earlier snapshots were built
// without them).
func TestMaterializedGeneralizedProvenance(t *testing.T) {
	before := seededRepo(t)
	if err := before.SetGeneralization(diseaseID, snpsLadder()); err != nil {
		t.Fatalf("SetGeneralization: %v", err)
	}
	fillEvery(t, before, diseaseID, allLevels)
	after := seededRepo(t)
	fillEvery(t, after, diseaseID, allLevels)
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
