package repo

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/storage"
	"provpriv/internal/workload"
)

// TestStoredExecutionsShareStructure: N runs of one spec — one shape — end
// as N executions over one copy of the graph, whether they came through
// AddExecution or through Save and Load (bulk ingest is AddExecution per item,
// server.TestBulkIngestEndToEnd). The first is kept as given, as its shape's
// representative; of the others only their values are, and the executions
// the caller passed in — read by another goroutine throughout, so under
// -race a write to one shows — are afterwards exactly what they were. The
// read path over the vectors holds: every level of every execution fills.
func TestStoredExecutionsShareStructure(t *testing.T) {
	const n = 8
	r := New()
	_, add := makeSynthSpec(t, 3, "s")
	add(r)
	s := r.Spec("s")
	var runs, before []*exec.Execution
	for i := 0; i < n; i++ {
		e, err := exec.NewRunner(s, nil).Run(fmt.Sprintf("E%d", n-i), workload.RandomInputs(s, int64(i)))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		data, err := exec.MarshalExecution(e)
		if err != nil {
			t.Fatal(err)
		}
		clone, err := exec.UnmarshalExecution(data)
		if err != nil {
			t.Fatal(err)
		}
		runs, before = append(runs, e), append(before, clone)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := json.Marshal(runs[i%n]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for _, e := range runs {
		if err := r.AddExecution(e); err != nil {
			t.Fatalf("AddExecution: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	for i, e := range runs {
		if !reflect.DeepEqual(e, before[i]) {
			t.Fatalf("AddExecution changed the caller's %s", e.ID)
		}
		if kept := r.stored("s", e.ID).Shape().Rep() == e; kept != (i == 0) || !reflect.DeepEqual(r.execution("s", e.ID), e) {
			t.Fatalf("%s: kept as given = %v, only the first of a shape is; or what is stored is not it", e.ID, kept)
		}
	}
	dir := t.TempDir()
	if err := r.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	defer loaded.CloseStorage()
	sameStored(t, r, loaded)
	for name, rr := range map[string]*Repository{"ingested": r, "loaded": loaded} {
		if got, shapes := sharesPerShape(t, rr), rr.Stats().ExecShapes; got != n-1 || shapes != 1 {
			t.Fatalf("%s: %d executions share the structure of %d shapes, want %d of 1", name, got, shapes, n-1)
		}
		if got := fillEvery(t, rr, "s", allLevels); got != n*len(allLevels) {
			t.Fatalf("%s: %d of %d snapshots filled", name, got, n*len(allLevels))
		}
	}
}

// TestLoadRefusesWhatNoSaveWrites: records that no Save produces — an
// execution of another spec in a shard's log, an execution id stored twice, a
// value record that names nothing stored before it or whose vector does not
// fit the shape it names — are corruption, not something to load around: the
// shard's bookkeeping, and every later value record, rest on an id meaning one
// execution of this shard. Each is appended to a committed log through the
// backend, the way damage or a foreign writer would put it there.
func TestLoadRefusesWhatNoSaveWrites(t *testing.T) {
	src := shapedRepo(t)
	items := len(src.execution("s0", "s0-z0").Items)
	foreign, err := json.Marshal(src.execution("s1", "s1-z0"))
	if err != nil {
		t.Fatal(err)
	}
	twice, err := json.Marshal(src.execution("s0", "s0-z0"))
	if err != nil {
		t.Fatal(err)
	}
	values := func(like string, n int, redacted ...int) []byte {
		data, err := json.Marshal(map[string]any{"like": like, "values": make([]string, n), "redacted": redacted})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for name, tc := range map[string]struct {
		rec     storage.Record
		corrupt bool
	}{
		"execution of another spec": {storage.Record{Type: storage.RecExec, Key: "s1-z0", Data: foreign}, true},
		"execution stored twice":    {storage.Record{Type: storage.RecExec, Key: "s0-z0", Data: twice}, true},
		"values stored twice":       {storage.Record{Type: storage.RecValues, Key: "s0-a1", Data: values("s0-z0", items)}, true},
		"values naming nothing":     {storage.Record{Type: storage.RecValues, Key: "new", Data: values("s0-nope", items)}, true},
		"values naming a later one": {storage.Record{Type: storage.RecValues, Key: "new", Data: values("new", items)}, true},
		"vector too short":          {storage.Record{Type: storage.RecValues, Key: "new", Data: values("s0-z0", items-1)}, true},
		"vector too long":           {storage.Record{Type: storage.RecValues, Key: "new", Data: values("s0-z0", items+1)}, true},
		"redacted index past end":   {storage.Record{Type: storage.RecValues, Key: "new", Data: values("s0-z0", items, items)}, true},
		"redacted index negative":   {storage.Record{Type: storage.RecValues, Key: "new", Data: values("s0-z0", items, -1)}, true},
		"values not JSON":           {storage.Record{Type: storage.RecValues, Key: "new", Data: []byte("{")}, true},
		"well-formed values":        {storage.Record{Type: storage.RecValues, Key: "new", Data: values("s0-a2", items, 0, items-1)}, false},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := shapedRepo(t).Save(dir); err != nil {
				t.Fatalf("Save: %v", err)
			}
			b, err := storage.OpenFlat(dir)
			if err != nil {
				t.Fatal(err)
			}
			meta, err := b.Meta()
			if err != nil {
				t.Fatal(err)
			}
			info := meta.Shards["s0"]
			if info.LogLen, err = b.Append("s0", info.Checkpoint, info.LogLen, []storage.Record{tc.rec}); err != nil {
				t.Fatal(err)
			}
			meta.Generation++
			meta.Shards["s0"] = info
			if err := b.Commit(meta); err != nil {
				t.Fatal(err)
			}
			b.Close()
			r, err := Load(dir)
			if tc.corrupt {
				if !errors.Is(err, storage.ErrCorrupt) {
					t.Fatalf("Load = %v, want storage.ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			defer r.CloseStorage()
			e := r.execution("s0", "new")
			if e == nil || !e.Items[e.ItemIDs()[0]].Redacted || e.Items[e.ItemIDs()[1]].Redacted || e.Validate() != nil {
				t.Fatalf("the well-formed value record loaded as %+v", e)
			}
		})
	}
}

// TestLoadsPR27Directory: testdata/store-pr27 is a directory the build of
// PR 27 saved (see pr27Repo) — every execution in full, in checkpoints and in
// logs. It loads; what it stores and every answer over it equal those of the
// same repository built in memory; and one more run, a Save and a Save that
// folds each shard by this build leave one full record per shape and value
// records beside it, over which a fresh load answers the same again.
func TestLoadsPR27Directory(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/store-pr27")); err != nil {
		t.Fatal(err)
	}
	if k := storedRecords(t, dir); k[storage.RecExec] != 6 || k[storage.RecValues] != 0 {
		t.Fatalf("fixture holds %d full and %d value records, want 6 and 0", k[storage.RecExec], k[storage.RecValues])
	}
	want := pr27Repo(t, func(*Repository) {})
	answers := func(r *Repository) string {
		t.Helper()
		var out []any
		for _, user := range []string{"pub", "ana", "own"} {
			for _, sid := range r.SpecIDs() {
				for _, term := range []string{"align", "normalize"} { // a module of old-0, one of old-1
					as, err := r.QueryAll(user, sid, fmt.Sprintf(`MATCH a = %q RETURN provenance(a)`, term))
					out = append(out, as, fmt.Sprint(err))
				}
				for _, id := range r.ExecutionIDs(sid) {
					for _, item := range r.execution(sid, id).ItemIDs() {
						p, err := r.Provenance(user, sid, id, item)
						out = append(out, p, fmt.Sprint(err))
					}
				}
			}
		}
		data, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	check := func(stage string, got *Repository) {
		t.Helper()
		sameStored(t, want, got)
		if g, w := content(got.Stats()), content(want.Stats()); g != w {
			t.Fatalf("%s: content %+v, want %+v", stage, g, w)
		}
		if g, w := answers(got), answers(want); g != w {
			t.Fatalf("%s: answers differ:\n got %s\nwant %s", stage, g, w)
		}
		if n := sharesPerShape(t, got); n != 4 {
			t.Fatalf("%s: %d executions share a first one's structure, want 4 (three runs of each of two specs)", stage, n)
		}
	}
	r, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	defer r.CloseStorage()
	check("as PR 27 saved it", r)

	for _, rr := range []*Repository{r, want} {
		e, err := exec.NewRunner(rr.Spec("old-1"), nil).Run("old-1-E3", workload.RandomInputs(rr.Spec("old-1"), 99))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if err := rr.AddExecution(e); err != nil {
			t.Fatalf("AddExecution: %v", err)
		}
	}
	if err := r.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if k := storedRecords(t, dir); k[storage.RecExec] != 6 || k[storage.RecValues] != 1 {
		t.Fatalf("after an append: %d full and %d value records, want 6 and 1", k[storage.RecExec], k[storage.RecValues])
	}
	// A save that folds: each shard's policy re-installed unchanged is a
	// delta, and with the threshold at 0 any delta outgrows the log.
	defer func(old uint64) { compactThreshold = old }(compactThreshold)
	compactThreshold = 0
	for _, sid := range r.SpecIDs() {
		if err := r.UpdatePolicy(sid, r.policy(sid)); err != nil {
			t.Fatalf("UpdatePolicy(%s): %v", sid, err)
		}
	}
	if err := r.Save(dir); err != nil {
		t.Fatalf("folding Save: %v", err)
	}
	if k := storedRecords(t, dir); k[storage.RecExec] != 2 || k[storage.RecValues] != 5 {
		t.Fatalf("after the folds: %d full and %d value records, want 2 and 5", k[storage.RecExec], k[storage.RecValues])
	}
	again, err := Load(dir)
	if err != nil {
		t.Fatalf("Load after the folds: %v", err)
	}
	defer again.CloseStorage()
	sameStored(t, want, again)
	if g, w := answers(again), answers(want); g != w || sharesPerShape(t, again) != 5 {
		t.Fatalf("after the folds: answers differ, or structure is not shared:\n got %s\nwant %s", g, w)
	}
}
