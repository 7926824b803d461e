package repo

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/query"
	"provpriv/internal/storage"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// policy returns the policy the spec's installed generation enforces (nil
// when the spec is absent).
func (r *Repository) policy(specID string) *privacy.Policy {
	sh := r.shard(specID)
	if sh == nil {
		return nil
	}
	return sh.current().pol
}

// stored returns one stored execution (nil when absent).
func (r *Repository) stored(specID, execID string) *exec.Stored {
	sh := r.shard(specID)
	if sh == nil {
		return nil
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.execs[execID]
}

// execution materializes one stored execution (nil when absent): its
// shape's structure, shared, with its values in fresh items.
func (r *Repository) execution(specID, execID string) *exec.Execution {
	st := r.stored(specID, execID)
	if st == nil {
		return nil
	}
	return st.Shape().Layout().Materialize(st.Shape().Rep(), st.ID, st.Vector())
}

// materialized materializes a snapshot as the execution view it carries the
// values of: its plan's structure, shared, with its values in fresh items.
func materialized(snap query.Snapshot) *exec.Execution {
	return snap.Plan.Layout().Materialize(snap.Plan.Exec, snap.ID, &snap.Vector)
}

// QueryAll is QueryAllPageCtx without a window or a context: every
// non-empty answer, in execution-id order.
func (r *Repository) QueryAll(userName, specID, queryText string) ([]*query.Answer, error) {
	answers, _, err := r.QueryAllPageCtx(context.Background(), userName, specID, queryText, 0, 0)
	return answers, err
}

// warm reads every execution of a spec at each of levels through the one
// fill path, under the installed generation, and returns how many snapshots
// it asked for: the next read of any of them is a hit. Nothing fills the
// cache ahead of a reader, so a test that wants it warm reads it warm.
func warm(t testing.TB, r *Repository, specID string, levels []privacy.Level) int {
	t.Helper()
	sh, n := r.shard(specID), 0
	for _, execID := range r.ExecutionIDs(specID) {
		for _, lvl := range levels {
			if _, err := sh.maskedExec(context.Background(), sh.current(), r.stored(specID, execID), lvl); err != nil {
				t.Errorf("warming %s/%s at %v: %v", specID, execID, lvl, err)
				return n
			}
			n++
		}
	}
	return n
}

// shapedRuns returns five runs of s, in the order to add them, that between
// them take a shard's store through everything a value record can go wrong
// on: two shapes (plain runs, and runs with other process ids) whose first
// members — the representatives, stored in full — sort after the runs that
// name them; values that need JSON escapes, an empty value, and items marked
// Redacted.
func shapedRuns(t testing.TB, s *workflow.Spec, prefix string, seed int64) []*exec.Execution {
	t.Helper()
	run := func(id string, i int64) *exec.Execution {
		e, err := exec.NewRunner(s, nil).Run(prefix+id, workload.RandomInputs(s, seed+i))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return e
	}
	escaped := run("-a1", 1)
	for i, id := range escaped.ItemIDs() {
		if i%3 == 0 {
			escaped.Items[id].Value += "\"q\\ \n\t<&>  é \x00"
		}
	}
	sparse := run("-a2", 2)
	ids := sparse.ItemIDs()
	sparse.Items[ids[0]].Value = ""
	sparse.Items[ids[len(ids)-1]].Redacted = true
	other := reproc(run("", 4), prefix+"-b1")
	other.Items[ids[len(ids)/2]].Redacted = true
	return []*exec.Execution{run("-z0", 0), escaped, sparse, reproc(run("", 3), prefix+"-y0"), other}
}

// shapedRepo holds two synthetic specs with shapedRuns each, one of them
// under a generalization ladder, and a user.
func shapedRepo(t testing.TB) *Repository {
	t.Helper()
	r := New()
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("s%d", i)
		pol, add := makeSynthSpec(t, int64(i), id)
		add(r)
		for _, e := range shapedRuns(t, r.Spec(id), id, int64(10*i)) {
			if err := r.AddExecution(e); err != nil {
				t.Fatalf("AddExecution(%s): %v", e.ID, err)
			}
		}
		if i == 0 {
			if err := r.SetGeneralization(id, ladderOver(r, id, protectAnInput(r.Spec(id), pol), "some")); err != nil {
				t.Fatalf("SetGeneralization: %v", err)
			}
		}
	}
	r.AddUser(privacy.User{Name: "ana", Level: privacy.Analyst, Group: "g"})
	return r
}

// sameStored fails unless got stores exactly the executions want does, each
// serializing (exec.MarshalExecution) to the same bytes.
func sameStored(t testing.TB, want, got *Repository) {
	t.Helper()
	if w, g := fmt.Sprint(want.SpecIDs()), fmt.Sprint(got.SpecIDs()); w != g {
		t.Fatalf("specs %s, want %s", g, w)
	}
	for _, sid := range want.SpecIDs() {
		if w, g := fmt.Sprint(want.ExecutionIDs(sid)), fmt.Sprint(got.ExecutionIDs(sid)); w != g {
			t.Fatalf("%s: executions %s, want %s", sid, g, w)
		}
		for _, id := range want.ExecutionIDs(sid) {
			w, err := exec.MarshalExecution(want.execution(sid, id))
			if err != nil {
				t.Fatal(err)
			}
			g, err := exec.MarshalExecution(got.execution(sid, id))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w, g) {
				t.Fatalf("%s/%s differs:\n got %s\nwant %s", sid, id, g, w)
			}
		}
	}
}

// sharesPerShape fails unless every execution r stores is a value vector
// over a shape the shard interned, its representative one of the shard's
// executions, and returns how many are not that representative.
func sharesPerShape(t testing.TB, r *Repository) (dependants int) {
	t.Helper()
	for _, sid := range r.SpecIDs() {
		for _, id := range r.ExecutionIDs(sid) {
			st := r.stored(sid, id)
			rep := st.Shape().Rep()
			if r.stored(sid, rep.ID) == nil || r.stored(sid, rep.ID).Shape() != st.Shape() || len(st.Vector().Vals) != len(rep.Items) {
				t.Fatalf("%s/%s is not a vector over the shape of %s, a stored execution", sid, id, rep.ID)
			}
			if st.ID != rep.ID {
				dependants++
			}
		}
	}
	return dependants
}

// storedRecords reads the committed records of every shard in dir, in the
// order a load meets them, failing on a value record that names an execution
// not met before it, and returns how many of each type there are.
func storedRecords(t testing.TB, dir string) map[storage.RecordType]int {
	t.Helper()
	b, err := storage.OpenFlat(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	meta, err := b.Meta()
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[storage.RecordType]int)
	for sid, info := range meta.Shards {
		met := make(map[string]bool)
		each := func(rec storage.Record) error {
			kinds[rec.Type]++
			if rec.Type == storage.RecValues {
				var v struct{ Like string }
				if err := json.Unmarshal(rec.Data, &v); err != nil || !met[v.Like] {
					t.Fatalf("%s: the values of %s name %q, not met before them (err %v)", sid, rec.Key, v.Like, err)
				}
			}
			if rec.Type == storage.RecExec || rec.Type == storage.RecValues {
				met[rec.Key] = true
			}
			return nil
		}
		if err := b.ReadCheckpoint(sid, info.Checkpoint, info.Records, each); err != nil {
			t.Fatal(err)
		}
		if err := b.ReplayLog(sid, info.Checkpoint, info.LogLen, each); err != nil {
			t.Fatal(err)
		}
	}
	return kinds
}

// contentStats is the persisted-content subset of Stats: the part a save
// and load round trip must preserve exactly (counters and cache state are
// runtime artifacts and are not persisted).
type contentStats struct {
	Specs, Executions, Users, IndexTerms, Postings int
}

func content(s Stats) contentStats {
	return contentStats{s.Specs, s.Executions, s.Users, s.IndexTerms, s.Postings}
}
