package repo

import (
	"fmt"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/workload"
)

// pr27Repo builds the repository testdata/store-pr27 holds: two small specs
// under random policies, three runs each, a generalization ladder on the
// first, three users. saved is called twice — after the second run of each
// spec and after the third — so a store it saves to ends with a checkpoint
// and a log per shard.
//
// The directory was written by the build of PR 27 (506e549), the last whose
// Save writes every execution in full: this file, copied unchanged into
// internal/repo of a checkout of that commit, beside a test that calls
// pr27Repo(t, func(r *Repository) { r.Save(dir) }). It uses nothing that
// build lacks; keep it that way, or the fixture cannot be written again.
func pr27Repo(t testing.TB, saved func(*Repository)) *Repository {
	t.Helper()
	r := New()
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("old-%d", i)
		s, err := workload.RandomSpec(workload.SpecConfig{Seed: int64(27 + i), ID: id, Depth: 2, Fanout: 1, Chain: 2, SkipProb: 0.2})
		if err != nil {
			t.Fatalf("RandomSpec: %v", err)
		}
		pol, err := workload.RandomPolicy(s, int64(270+i))
		if err != nil {
			t.Fatalf("RandomPolicy: %v", err)
		}
		if err := r.AddSpec(s, protectAnInput(s, pol)); err != nil {
			t.Fatalf("AddSpec: %v", err)
		}
	}
	r.AddUser(privacy.User{Name: "pub", Level: privacy.Public, Group: "g0"})
	r.AddUser(privacy.User{Name: "ana", Level: privacy.Analyst, Group: "g1"})
	r.AddUser(privacy.User{Name: "own", Level: privacy.Owner, Group: "g2"})
	for j := 0; j < 3; j++ {
		for _, id := range r.SpecIDs() {
			e, err := exec.NewRunner(r.Spec(id), nil).Run(fmt.Sprintf("%s-E%d", id, j), workload.RandomInputs(r.Spec(id), int64(10*j+len(id))))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if err := r.AddExecution(e); err != nil {
				t.Fatalf("AddExecution: %v", err)
			}
		}
		if j == 0 {
			if err := r.SetGeneralization("old-0", ladderOver(r, "old-0", r.policy("old-0"), "some")); err != nil {
				t.Fatalf("SetGeneralization: %v", err)
			}
		}
		if j > 0 {
			saved(r)
		}
	}
	return r
}
