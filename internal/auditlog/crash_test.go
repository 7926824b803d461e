package auditlog

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"provpriv/internal/storage"
	"provpriv/internal/storage/storagetest"
)

// window returns the whole query ring, oldest first.
func window(l *Log) []Record {
	recs, _ := l.Recent(Query{Limit: ringSize})
	for i, j := 0, len(recs)-1; i < j; i, j = i+1, j-1 {
		recs[i], recs[j] = recs[j], recs[i]
	}
	return recs
}

// TestCrashMatrix kills the backend before and after its 1st…3rd Append
// under one and under eight concurrent appenders, with and without a
// torn half-frame glued to what the dying write left, and reopens. No
// acknowledged record may be missing; what is present unacknowledged is
// at most the one batch in flight, at the very end;
// Seq is strictly increasing; the next Append continues after the
// recovered tail and is itself found by the open after that.
func TestCrashMatrix(t *testing.T) {
	for _, when := range []string{"before", "after"} {
		for n := 1; n <= 3; n++ {
			for _, appenders := range []int{1, 8} {
				for _, torn := range []bool{false, true} {
					c := crashCase{when, n, appenders, torn}
					// "flat" is from when the matrix ran on two backends.
					name := fmt.Sprintf("flat/%s-append-%d/appenders=%d/torn=%v", when, n, appenders, torn)
					t.Run(name, c.run)
				}
			}
		}
	}
}

// crashCase is one cell of the matrix.
type crashCase struct {
	when      string // "before" or "after" the n-th Backend.Append
	n         int
	appenders int
	torn      bool
}

func (c crashCase) run(t *testing.T) {
	const perAppender = 4
	when, n, appenders, torn := c.when, c.n, c.appenders, c.torn
	dir := t.TempDir()
	open := func() storage.Backend {
		t.Helper()
		b, err := storage.OpenFlat(dir)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// An earlier, cleanly closed session: its two records sit
	// inside the manifest's extent, the rest will not.
	l, err := Open(open())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := l.Append(Record{Action: "exec.add", Target: fmt.Sprintf("old-%d", i), Status: 201}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The session that dies.
	f := storagetest.NewFault(open())
	if when == "before" {
		f.KillBefore(storagetest.OpAppend, n)
	} else {
		f.KillAfter(storagetest.OpAppend, n)
	}
	if l, err = Open(f); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	acked := map[string]bool{"old-0": true, "old-1": true}
	var wg sync.WaitGroup
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perAppender; i++ {
				target := fmt.Sprintf("g%d-%d", g, i)
				if l.Append(Record{Action: "exec.add", Target: target, Status: 201}) != nil {
					return
				}
				mu.Lock()
				acked[target] = true
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if !f.Dead() {
		t.Fatal("the kill point never fired")
	}
	// A dead process's descriptors get closed; its manifest
	// commit never happens.
	if err := l.Close(); err == nil {
		t.Fatal("Close committed through a dead backend")
	}
	if torn {
		paths, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		if len(paths) != 1 {
			t.Fatalf("log files = %v, want one", paths)
		}
		fd, err := os.OpenFile(paths[0], os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		// A frame header promising 64 bytes, followed by 6.
		if _, err := fd.Write([]byte{0, 0, 0, 64, 0xde, 0xad, 0xbe, 0xef, 5, 0, 0, 0, 1, '7'}); err != nil {
			t.Fatal(err)
		}
		fd.Close()
	}

	if l, err = Open(open()); err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	recovered := window(l)
	var lastSeq uint64
	seen := make(map[string]bool)
	unacked := 0
	for _, r := range recovered {
		if r.Seq <= lastSeq {
			t.Fatalf("seq %d after %d: not strictly increasing", r.Seq, lastSeq)
		}
		lastSeq = r.Seq
		seen[r.Target] = true
		if !acked[r.Target] {
			unacked++
		} else if unacked > 0 {
			t.Fatalf("acknowledged record %s follows an unacknowledged one: more than the last batch survived", r.Target)
		}
	}
	for target := range acked {
		if !seen[target] {
			t.Fatalf("acknowledged record %s lost", target)
		}
	}
	if unacked > appenders {
		t.Fatalf("%d unacknowledged records present, more than one batch of %d appenders", unacked, appenders)
	}
	if when == "before" && unacked != 0 {
		t.Fatalf("%d records present from an Append that never ran", unacked)
	}
	if total := l.Total(); total != uint64(len(recovered)) {
		t.Fatalf("total = %d, window holds %d", total, len(recovered))
	}

	// The log goes on after the recovered tail, over the torn bytes.
	if err := l.Append(Record{Action: "exec.add", Target: "next", Status: 201}); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = Open(open()); err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer l.Close()
	again := window(l)
	if len(again) != len(recovered)+1 {
		t.Fatalf("second reopen holds %d records, want %d", len(again), len(recovered)+1)
	}
	if last := again[len(again)-1]; last.Target != "next" || last.Seq <= lastSeq {
		t.Fatalf("record after recovery = %s seq %d, want next with seq > %d", last.Target, last.Seq, lastSeq)
	}
	for i, r := range recovered {
		if !again[i].Time.Equal(r.Time) {
			t.Fatalf("record %d changed its time across the second reopen", i)
		}
		if again[i].Time = r.Time; again[i] != r {
			t.Fatalf("record %d changed across the second reopen: %+v → %+v", i, r, again[i])
		}
	}
}
