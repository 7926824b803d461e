// Package storagetest holds the shared conformance suite every
// storage.Backend implementation must pass. It lives outside package
// storage so production binaries don't link the testing package.
package storagetest

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"provpriv/internal/storage"
)

// Conformance runs the shared Backend contract suite against the
// backend produced by open. open is called with a fresh directory per
// subtest; reopening the same directory must observe the committed
// state (crash-recovery semantics).
func Conformance(t *testing.T, open func(dir string) (storage.Backend, error)) {
	t.Helper()

	mustOpen := func(t *testing.T, dir string) storage.Backend {
		t.Helper()
		b, err := open(dir)
		if err != nil {
			t.Fatalf("open %s: %v", dir, err)
		}
		return b
	}

	rec := func(typ storage.RecordType, key, data string) storage.Record {
		return storage.Record{Type: typ, Key: key, Data: []byte(data)}
	}

	collect := func(t *testing.T, read func(fn func(storage.Record) error) error) []storage.Record {
		t.Helper()
		var recs []storage.Record
		if err := read(func(r storage.Record) error {
			// Data is valid until the callback returns: keep a copy.
			r.Data = bytes.Clone(r.Data)
			recs = append(recs, r)
			return nil
		}); err != nil {
			t.Fatalf("read records: %v", err)
		}
		return recs
	}

	wantRecords := func(t *testing.T, got, want []storage.Record) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("got %d records, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Type != want[i].Type || got[i].Key != want[i].Key ||
				!bytes.Equal(got[i].Data, want[i].Data) {
				t.Fatalf("record %d = {%v %q %q}, want {%v %q %q}",
					i, got[i].Type, got[i].Key, got[i].Data,
					want[i].Type, want[i].Key, want[i].Data)
			}
		}
	}

	t.Run("EmptyMeta", func(t *testing.T) {
		b := mustOpen(t, t.TempDir())
		defer b.Close()
		m, err := b.Meta()
		if err != nil {
			t.Fatalf("Meta on empty store: %v", err)
		}
		if m.Generation != 0 || len(m.Shards) != 0 {
			t.Fatalf("empty store meta = %+v, want zero", m)
		}
	})

	t.Run("CheckpointRoundTrip", func(t *testing.T) {
		dir := t.TempDir()
		b := mustOpen(t, dir)
		recs := []storage.Record{
			rec(storage.RecSpec, "wf/alpha", `{"id":"wf/alpha"}`),
			rec(storage.RecPolicy, "wf/alpha", `{"spec":"wf/alpha"}`),
			rec(storage.RecExec, "e1", `{"id":"e1"}`),
			rec(storage.RecValues, "e2", `{"like":"e1","values":["a \"b\"",""],"redacted":[1]}`),
		}
		if err := b.WriteCheckpoint("wf/alpha", 1, recs); err != nil {
			t.Fatalf("WriteCheckpoint: %v", err)
		}
		meta := storage.Meta{Generation: 1, Shards: map[string]storage.ShardInfo{
			"wf/alpha": {Checkpoint: 1, Records: 4},
		}}
		if err := b.Commit(meta); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		wantRecords(t, collect(t, func(fn func(storage.Record) error) error {
			return b.ReadCheckpoint("wf/alpha", 1, 4, fn)
		}), recs)
		b.Close()

		// Reopen: committed state must survive.
		b2 := mustOpen(t, dir)
		defer b2.Close()
		m, err := b2.Meta()
		if err != nil {
			t.Fatalf("Meta after reopen: %v", err)
		}
		if m.Generation != 1 || m.Shards["wf/alpha"].Records != 4 {
			t.Fatalf("reopened meta = %+v", m)
		}
		wantRecords(t, collect(t, func(fn func(storage.Record) error) error {
			return b2.ReadCheckpoint("wf/alpha", 1, 4, fn)
		}), recs)
	})

	t.Run("AppendReplayCommittedExtent", func(t *testing.T) {
		b := mustOpen(t, t.TempDir())
		defer b.Close()
		if err := b.WriteCheckpoint("s", 1, nil); err != nil {
			t.Fatalf("WriteCheckpoint: %v", err)
		}
		batch1 := []storage.Record{rec(storage.RecExec, "e1", "one"), rec(storage.RecExec, "e2", "two")}
		len1, err := b.Append("s", 1, 0, batch1)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := b.Commit(storage.Meta{Generation: 1, Shards: map[string]storage.ShardInfo{
			"s": {Checkpoint: 1, Records: 0, LogLen: len1},
		}}); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		batch2 := []storage.Record{rec(storage.RecValues, "e3", "three")}
		len2, err := b.Append("s", 1, len1, batch2)
		if err != nil {
			t.Fatalf("Append 2: %v", err)
		}
		if len2 <= len1 {
			t.Fatalf("extent did not grow: %d -> %d", len1, len2)
		}
		if err := b.Commit(storage.Meta{Generation: 2, Shards: map[string]storage.ShardInfo{
			"s": {Checkpoint: 1, Records: 0, LogLen: len2},
		}}); err != nil {
			t.Fatalf("Commit 2: %v", err)
		}
		wantRecords(t, collect(t, func(fn func(storage.Record) error) error {
			return b.ReplayLog("s", 1, len2, fn)
		}), append(append([]storage.Record{}, batch1...), batch2...))
	})

	t.Run("UncommittedTailInvisible", func(t *testing.T) {
		dir := t.TempDir()
		b := mustOpen(t, dir)
		if err := b.WriteCheckpoint("s", 1, nil); err != nil {
			t.Fatalf("WriteCheckpoint: %v", err)
		}
		committed := []storage.Record{rec(storage.RecExec, "e1", "one")}
		len1, err := b.Append("s", 1, 0, committed)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := b.Commit(storage.Meta{Generation: 1, Shards: map[string]storage.ShardInfo{
			"s": {Checkpoint: 1, LogLen: len1},
		}}); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		// Crash scenario: records appended but never committed.
		if _, err := b.Append("s", 1, len1, []storage.Record{rec(storage.RecExec, "orphan", "x")}); err != nil {
			t.Fatalf("Append orphan: %v", err)
		}
		b.Close()

		b2 := mustOpen(t, dir)
		defer b2.Close()
		m, err := b2.Meta()
		if err != nil {
			t.Fatalf("Meta: %v", err)
		}
		if m.Shards["s"].LogLen != len1 {
			t.Fatalf("committed extent = %d, want %d", m.Shards["s"].LogLen, len1)
		}
		// Replay to the committed extent: the orphan must not appear.
		wantRecords(t, collect(t, func(fn func(storage.Record) error) error {
			return b2.ReplayLog("s", 1, len1, fn)
		}), committed)
		// The next append at the committed extent overwrites the orphan.
		replacement := []storage.Record{rec(storage.RecExec, "e2", "two")}
		len2, err := b2.Append("s", 1, len1, replacement)
		if err != nil {
			t.Fatalf("Append over orphan: %v", err)
		}
		if err := b2.Commit(storage.Meta{Generation: 2, Shards: map[string]storage.ShardInfo{
			"s": {Checkpoint: 1, LogLen: len2},
		}}); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		wantRecords(t, collect(t, func(fn func(storage.Record) error) error {
			return b2.ReplayLog("s", 1, len2, fn)
		}), append(append([]storage.Record{}, committed...), replacement...))
	})

	t.Run("TailReplayContinuesPastCommittedExtent", func(t *testing.T) {
		// The self-committing reader: records a writer appended and
		// fsynced but never published are found from the committed extent
		// on, and the returned end is where that writer goes on.
		dir := t.TempDir()
		b := mustOpen(t, dir)
		if err := b.WriteCheckpoint("s", 1, nil); err != nil {
			t.Fatalf("WriteCheckpoint: %v", err)
		}
		if err := b.Commit(storage.Meta{Generation: 1, Shards: map[string]storage.ShardInfo{
			"s": {Checkpoint: 1},
		}}); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		tail := func(b storage.Backend, from uint64) ([]storage.Record, uint64) {
			t.Helper()
			var end uint64
			recs := collect(t, func(fn func(storage.Record) error) (err error) {
				end, err = b.ReplayTail("s", 1, from, fn)
				return err
			})
			return recs, end
		}
		if recs, end := tail(b, 0); len(recs) != 0 || end != 0 {
			t.Fatalf("tail of a log never appended to = %d records, end %d", len(recs), end)
		}
		batch1 := []storage.Record{rec(storage.RecAudit, "1", "one")}
		len1, err := b.Append("s", 1, 0, batch1)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		batch2 := []storage.Record{rec(storage.RecAudit, "2", "two"), rec(storage.RecAudit, "3", "three")}
		len2, err := b.Append("s", 1, len1, batch2)
		if err != nil {
			t.Fatalf("Append 2: %v", err)
		}
		b.Close()

		b2 := mustOpen(t, dir)
		defer b2.Close()
		all := append(append([]storage.Record{}, batch1...), batch2...)
		recs, end := tail(b2, 0)
		wantRecords(t, recs, all)
		if end != len2 {
			t.Fatalf("tail from 0 ends at %d, want %d", end, len2)
		}
		recs, end = tail(b2, len1)
		wantRecords(t, recs, batch2)
		if end != len2 {
			t.Fatalf("tail from %d ends at %d, want %d", len1, end, len2)
		}
		if recs, end := tail(b2, len2); len(recs) != 0 || end != len2 {
			t.Fatalf("tail from the end = %d records, end %d", len(recs), end)
		}
		batch3 := []storage.Record{rec(storage.RecAudit, "4", "four")}
		len3, err := b2.Append("s", 1, end, batch3)
		if err != nil {
			t.Fatalf("Append at the tail's end: %v", err)
		}
		recs, end = tail(b2, 0)
		wantRecords(t, recs, append(all, batch3...))
		if end != len3 {
			t.Fatalf("tail after the next append ends at %d, want %d", end, len3)
		}
	})

	t.Run("CommitIsAtomicOverCrash", func(t *testing.T) {
		// New-generation checkpoints written but not committed must be
		// invisible after reopen — the heart of the torn-snapshot fix.
		dir := t.TempDir()
		b := mustOpen(t, dir)
		v1 := []storage.Record{rec(storage.RecSpec, "s", "v1")}
		if err := b.WriteCheckpoint("s", 1, v1); err != nil {
			t.Fatalf("WriteCheckpoint: %v", err)
		}
		if err := b.Commit(storage.Meta{Generation: 1, Shards: map[string]storage.ShardInfo{
			"s": {Checkpoint: 1, Records: 1},
		}}); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		// Start generation 2 but "crash" before Commit.
		if err := b.WriteCheckpoint("s", 2, []storage.Record{rec(storage.RecSpec, "s", "v2")}); err != nil {
			t.Fatalf("WriteCheckpoint gen2: %v", err)
		}
		b.Close()

		b2 := mustOpen(t, dir)
		defer b2.Close()
		m, err := b2.Meta()
		if err != nil {
			t.Fatalf("Meta: %v", err)
		}
		if m.Generation != 1 || m.Shards["s"].Checkpoint != 1 {
			t.Fatalf("uncommitted generation leaked into meta: %+v", m)
		}
		wantRecords(t, collect(t, func(fn func(storage.Record) error) error {
			return b2.ReadCheckpoint("s", 1, 1, fn)
		}), v1)
	})

	t.Run("GenerationIsolation", func(t *testing.T) {
		b := mustOpen(t, t.TempDir())
		defer b.Close()
		if err := b.WriteCheckpoint("s", 1, []storage.Record{rec(storage.RecSpec, "s", "v1")}); err != nil {
			t.Fatalf("WriteCheckpoint gen1: %v", err)
		}
		if err := b.WriteCheckpoint("s", 2, []storage.Record{rec(storage.RecSpec, "s", "v2")}); err != nil {
			t.Fatalf("WriteCheckpoint gen2: %v", err)
		}
		// Writing generation 2 must not disturb generation 1.
		wantRecords(t, collect(t, func(fn func(storage.Record) error) error {
			return b.ReadCheckpoint("s", 1, 1, fn)
		}), []storage.Record{rec(storage.RecSpec, "s", "v1")})
		wantRecords(t, collect(t, func(fn func(storage.Record) error) error {
			return b.ReadCheckpoint("s", 2, 1, fn)
		}), []storage.Record{rec(storage.RecSpec, "s", "v2")})
	})

	t.Run("RecordCountMismatchDetected", func(t *testing.T) {
		b := mustOpen(t, t.TempDir())
		defer b.Close()
		if err := b.WriteCheckpoint("s", 1, []storage.Record{rec(storage.RecSpec, "s", "v1")}); err != nil {
			t.Fatalf("WriteCheckpoint: %v", err)
		}
		err := b.ReadCheckpoint("s", 1, 2, func(storage.Record) error { return nil })
		if !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("short checkpoint read err = %v, want ErrCorrupt", err)
		}
	})

	t.Run("DropShard", func(t *testing.T) {
		b := mustOpen(t, t.TempDir())
		defer b.Close()
		for _, s := range []string{"keep", "drop"} {
			if err := b.WriteCheckpoint(s, 1, []storage.Record{rec(storage.RecSpec, s, s)}); err != nil {
				t.Fatalf("WriteCheckpoint %s: %v", s, err)
			}
			if _, err := b.Append(s, 1, 0, []storage.Record{rec(storage.RecExec, s+"-e", "x")}); err != nil {
				t.Fatalf("Append %s: %v", s, err)
			}
		}
		if err := b.Commit(storage.Meta{Generation: 1, Shards: map[string]storage.ShardInfo{
			"keep": {Checkpoint: 1, Records: 1},
		}}); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		if err := b.DropShard("drop"); err != nil {
			t.Fatalf("DropShard: %v", err)
		}
		wantRecords(t, collect(t, func(fn func(storage.Record) error) error {
			return b.ReadCheckpoint("keep", 1, 1, fn)
		}), []storage.Record{rec(storage.RecSpec, "keep", "keep")})
		if err := b.ReadCheckpoint("drop", 1, 1, func(storage.Record) error { return nil }); err == nil {
			t.Fatal("dropped shard still readable")
		}
	})

	t.Run("OddKeysAndBinaryData", func(t *testing.T) {
		dir := t.TempDir()
		b := mustOpen(t, dir)
		shard := "wf/π name\x00with/odd:chars"
		data := []byte{0, 1, 2, 255, 254, '\n', '"'}
		recs := []storage.Record{{Type: storage.RecExec, Key: "exec\x00id", Data: data}}
		if err := b.WriteCheckpoint(shard, 1, recs); err != nil {
			t.Fatalf("WriteCheckpoint: %v", err)
		}
		if err := b.Commit(storage.Meta{Generation: 1, Shards: map[string]storage.ShardInfo{
			shard: {Checkpoint: 1, Records: 1},
		}}); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		b.Close()
		b2 := mustOpen(t, dir)
		defer b2.Close()
		wantRecords(t, collect(t, func(fn func(storage.Record) error) error {
			return b2.ReadCheckpoint(shard, 1, 1, fn)
		}), recs)
	})

	t.Run("ConcurrentReadersDuringWrites", func(t *testing.T) {
		// Single writer advancing generations; readers churning over Meta
		// + checkpoint + log must always observe one committed snapshot.
		// Pruning only spares the immediately previous generation, so a
		// reader whose Meta fell further behind retries with a fresh one.
		b := mustOpen(t, t.TempDir())
		defer b.Close()
		const shards = 3
		shardID := func(i int) string { return fmt.Sprintf("s%d", i) }

		var latest sync.Map // shard id -> committed generation
		commitVersion := func(v uint64) error {
			meta := storage.Meta{Generation: v, Shards: map[string]storage.ShardInfo{}}
			payload := fmt.Sprintf("v%d", v)
			for i := 0; i < shards; i++ {
				if err := b.WriteCheckpoint(shardID(i), v, []storage.Record{rec(storage.RecSpec, shardID(i), payload)}); err != nil {
					return err
				}
				ln, err := b.Append(shardID(i), v, 0, []storage.Record{rec(storage.RecExec, payload, payload)})
				if err != nil {
					return err
				}
				meta.Shards[shardID(i)] = storage.ShardInfo{Checkpoint: v, Records: 1, LogLen: ln}
			}
			// Record the version before Commit: pruning runs inside it, and
			// readers consult latest to decide whether a failed read means
			// inconsistency or just an overheld snapshot.
			for i := 0; i < shards; i++ {
				latest.Store(shardID(i), v)
			}
			return b.Commit(meta)
		}
		if err := commitVersion(1); err != nil {
			t.Fatalf("seed commit: %v", err)
		}

		done := make(chan struct{})
		var wg sync.WaitGroup
		readErr := make(chan error, 8)
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					m, err := b.Meta()
					if err != nil {
						readErr <- err
						return
					}
					for sid, info := range m.Shards {
						err := b.ReadCheckpoint(sid, info.Checkpoint, info.Records, func(storage.Record) error { return nil })
						if err == nil {
							err = b.ReplayLog(sid, info.Checkpoint, info.LogLen, func(storage.Record) error { return nil })
						}
						if err != nil {
							// In contract, a commit spares the previous
							// generation: a failure is only an inconsistency if
							// our snapshot was still within one commit of tip.
							if cur, ok := latest.Load(sid); ok && cur.(uint64) > info.Checkpoint+1 {
								break // overheld snapshot; retry with fresh Meta
							}
							readErr <- fmt.Errorf("shard %s gen %d: %w", sid, info.Checkpoint, err)
							return
						}
					}
				}
			}()
		}
		for v := uint64(2); v <= 12; v++ {
			if err := commitVersion(v); err != nil {
				t.Fatalf("commit v%d: %v", v, err)
			}
		}
		close(done)
		wg.Wait()
		select {
		case err := <-readErr:
			t.Fatalf("reader observed inconsistency: %v", err)
		default:
		}
	})
}
