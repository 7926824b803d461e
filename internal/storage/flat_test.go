package storage

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func flatRecs(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Type: RecExec, Key: "e", Data: []byte("payload")}
	}
	return recs
}

func TestFlatTornLogTailIgnored(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFlat(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteCheckpoint("s", 1, nil); err != nil {
		t.Fatal(err)
	}
	ln, err := f.Append("s", 1, 0, flatRecs(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(Meta{Generation: 1, Shards: map[string]ShardInfo{
		"s": {Checkpoint: 1, LogLen: ln},
	}}); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: garbage bytes past the committed extent.
	logPath := filepath.Join(dir, walName("s", 1))
	fd, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fd.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	fd.Close()

	// Replay within the committed extent is unaffected.
	var n int
	if err := f.ReplayLog("s", 1, ln, func(Record) error { n++; return nil }); err != nil {
		t.Fatalf("replay with torn tail: %v", err)
	}
	if n != 2 {
		t.Fatalf("replayed %d records, want 2", n)
	}
	// The next append truncates the garbage and lands cleanly.
	ln2, err := f.Append("s", 1, ln, flatRecs(1))
	if err != nil {
		t.Fatalf("append over torn tail: %v", err)
	}
	n = 0
	if err := f.ReplayLog("s", 1, ln2, func(Record) error { n++; return nil }); err != nil {
		t.Fatalf("replay after overwrite: %v", err)
	}
	if n != 3 {
		t.Fatalf("replayed %d records, want 3", n)
	}
}

func TestFlatStaleTempSweepAgeGuarded(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFlat(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A crashed writer's litter (old) and a live writer's temp (fresh).
	stale := filepath.Join(dir, ".manifest.json.tmp-123")
	fresh := filepath.Join(dir, ".manifest.json.tmp-456")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * tempMaxAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteCheckpoint("s", 1, flatRecs(1)); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(Meta{Generation: 1, Shards: map[string]ShardInfo{
		"s": {Checkpoint: 1, Records: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp survived the sweep (stat err = %v)", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh temp was swept: %v", err)
	}
}

func TestFlatCommitPrunesOldGenerations(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFlat(dir)
	if err != nil {
		t.Fatal(err)
	}
	commit := func(gen uint64) {
		t.Helper()
		if err := f.WriteCheckpoint("s", gen, flatRecs(1)); err != nil {
			t.Fatal(err)
		}
		if err := f.Commit(Meta{Generation: gen, Shards: map[string]ShardInfo{
			"s": {Checkpoint: gen, Records: 1},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	commit(1)
	// Generation pruning keeps the previous generation for in-flight
	// readers and drops anything older.
	commit(2)
	commit(3)
	if _, err := os.Stat(filepath.Join(dir, ckptName("s", 1))); !os.IsNotExist(err) {
		t.Errorf("generation 1 checkpoint survived two commits (stat err = %v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, ckptName("s", 2))); err != nil {
		t.Errorf("previous generation pruned too eagerly: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, ckptName("s", 3))); err != nil {
		t.Errorf("current generation missing: %v", err)
	}
}

// TestFlatLegacyManifestDetected: the two layouts this tree no longer
// reads — a pre-log manifest, and a KV-backend directory (store.kv, no
// manifest.json) — each get their sentinel instead of reading as an
// empty store.
func TestFlatLegacyManifestDetected(t *testing.T) {
	for _, tc := range []struct {
		file, content string
		want          error
	}{
		{manifestName, `{"specs":["spec-a.json"],"policies":[],"executions":[]}`, ErrLegacyLayout},
		{kvFileName, "\x00kv frames", ErrKVLayout},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, tc.file), []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := OpenFlat(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Meta(); err != tc.want {
			t.Errorf("Meta on a directory holding only %s = %v, want %v", tc.file, err, tc.want)
		}
	}
}
