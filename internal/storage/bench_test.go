package storage_test

import (
	"fmt"
	"testing"

	"provpriv/internal/storage"
)

func benchOpen(b testing.TB) storage.Backend {
	b.Helper()
	bk, err := storage.OpenFlat(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	return bk
}

func benchRecords(n, payload int) []storage.Record {
	recs := make([]storage.Record, n)
	data := make([]byte, payload)
	for i := range data {
		data[i] = byte('a' + i%26)
	}
	for i := range recs {
		recs[i] = storage.Record{Type: storage.RecExec, Key: fmt.Sprintf("exec-%06d", i), Data: data}
	}
	return recs
}

// seedLog writes and commits count log records, returning the extent.
func seedLog(tb testing.TB, bk storage.Backend, count int) uint64 {
	tb.Helper()
	if err := bk.WriteCheckpoint("bench", 1, nil); err != nil {
		tb.Fatal(err)
	}
	ln, err := bk.Append("bench", 1, 0, benchRecords(count, 256))
	if err != nil {
		tb.Fatal(err)
	}
	if err := bk.Commit(storage.Meta{Generation: 1, Shards: map[string]storage.ShardInfo{
		"bench": {Checkpoint: 1, LogLen: ln},
	}}); err != nil {
		tb.Fatal(err)
	}
	return ln
}

func BenchmarkFlatAppend(b *testing.B) {
	bk := benchOpen(b)
	defer bk.Close()
	if err := bk.WriteCheckpoint("bench", 1, nil); err != nil {
		b.Fatal(err)
	}
	recs := benchRecords(16, 256)
	var at uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		at, err = bk.Append("bench", 1, at, recs)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlatReplay(b *testing.B) {
	bk := benchOpen(b)
	defer bk.Close()
	ln := seedLog(b, bk, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int
		if err := bk.ReplayLog("bench", 1, ln, func(storage.Record) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != 2000 {
			b.Fatalf("replayed %d records", n)
		}
	}
}

func BenchmarkFlatCompact(b *testing.B) {
	// Compaction at the engine level = folding a log into a fresh
	// checkpoint at the next generation and committing it.
	bk := benchOpen(b)
	defer bk.Close()
	seedLog(b, bk, 2000)
	recs := benchRecords(2000, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := uint64(i + 2)
		if err := bk.WriteCheckpoint("bench", gen, recs); err != nil {
			b.Fatal(err)
		}
		if err := bk.Commit(storage.Meta{Generation: gen, Shards: map[string]storage.ShardInfo{
			"bench": {Checkpoint: gen, Records: 2000},
		}}); err != nil {
			b.Fatal(err)
		}
	}
}
