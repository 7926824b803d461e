package storage

import (
	"bufio"
	"bytes"
	"errors"
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

// TestFramesAroundTheReaderBuffer: frames smaller than the pooled
// bufio.Reader's buffer are served from it, larger ones bypass it into the
// payload buffer. Records on both sides of that size, one filling the buffer
// exactly and one far past it, read back byte for byte from a checkpoint, a
// committed log and a tail; a tail cut inside the largest frame ends in
// front of it, and a checkpoint cut there is corrupt.
func TestFramesAroundTheReaderBuffer(t *testing.T) {
	readerBuffer := bufio.NewReader(nil).Size()
	var recs []Record
	var big uint64 // offset of the largest frame
	var at uint64
	for i, n := range []int{0, 100, readerBuffer - 6, readerBuffer - 5, 3 * readerBuffer, 7} {
		data := make([]byte, n)
		for j := range data {
			data[j] = byte(i + j)
		}
		if n == 3*readerBuffer {
			big = at
		}
		recs = append(recs, Record{Type: RecExec, Key: "k", Data: data})
		at += uint64(frameHeader + 5 + 1 + n)
	}
	same := func(what string, got []Record) {
		t.Helper()
		if len(got) != len(recs) {
			t.Fatalf("%s: %d records, want %d", what, len(got), len(recs))
		}
		for i := range recs {
			if got[i].Type != recs[i].Type || got[i].Key != recs[i].Key || !bytes.Equal(got[i].Data, recs[i].Data) {
				t.Fatalf("%s: record %d (%d bytes) differs", what, i, len(recs[i].Data))
			}
		}
	}
	collect := func(dst *[]Record) func(Record) error {
		return func(r Record) error {
			r.Data = bytes.Clone(r.Data)
			*dst = append(*dst, r)
			return nil
		}
	}
	dir := t.TempDir()
	f, err := OpenFlat(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteCheckpoint("s", 1, recs); err != nil {
		t.Fatal(err)
	}
	ln, err := f.Append("s", 1, 0, recs)
	if err != nil {
		t.Fatal(err)
	}
	var ckpt, log, tail []Record
	if err := f.ReadCheckpoint("s", 1, uint64(len(recs)), collect(&ckpt)); err != nil {
		t.Fatalf("ReadCheckpoint: %v", err)
	}
	same("checkpoint", ckpt)
	if err := f.ReplayLog("s", 1, ln, collect(&log)); err != nil {
		t.Fatalf("ReplayLog: %v", err)
	}
	same("log", log)
	end, err := f.ReplayTail("s", 1, 0, collect(&tail))
	if err != nil || end != ln {
		t.Fatalf("ReplayTail = %d, %v; want %d", end, err, ln)
	}
	same("tail", tail)

	cut := int64(big + frameHeader + uint64(readerBuffer))
	if err := os.Truncate(filepath.Join(dir, walName("s", 1)), cut); err != nil {
		t.Fatal(err)
	}
	tail = nil
	if end, err := f.ReplayTail("s", 1, 0, collect(&tail)); err != nil || end != big || len(tail) != 4 {
		t.Fatalf("tail cut inside the largest frame = %d records ending at %d (err %v), want 4 ending at %d", len(tail), end, err, big)
	}
	if err := os.Truncate(filepath.Join(dir, ckptName("s", 1)), cut); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadCheckpoint("s", 1, uint64(len(recs)), func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("checkpoint cut inside the largest frame reads with %v, want ErrCorrupt", err)
	}
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
