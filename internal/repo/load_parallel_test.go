package repo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"provpriv/internal/storage"
	"provpriv/internal/storage/storagetest"
)

// logFixture saves a directory of eight shards, two of them deep, then a
// second generation that appends to every shard's log (runs of a shape the
// checkpoint holds and of one it does not, and on wide-0 a policy), so a
// load reads a checkpoint and replays a log for each shard. It returns the
// directory and the repository that saved it.
func logFixture(t *testing.T) (string, *Repository) {
	t.Helper()
	r := manyShards(t, 6, 3, 2, 40)
	dir := t.TempDir()
	if err := r.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	for i, sid := range r.SpecIDs() {
		for _, e := range shapedRuns(t, r.Spec(sid), sid+"-log", int64(1000+i)) {
			if err := r.AddExecution(e); err != nil {
				t.Fatalf("AddExecution: %v", err)
			}
		}
	}
	if err := r.UpdatePolicy("wide-0", nil); err != nil {
		t.Fatalf("UpdatePolicy: %v", err)
	}
	if err := r.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := r.CloseStorage(); err != nil {
		t.Fatal(err)
	}
	meta := dirMeta(t, dir)
	for _, sid := range r.SpecIDs() {
		if meta.Shards[sid].LogLen == 0 {
			t.Fatalf("fixture: shard %s has no log past its checkpoint", sid)
		}
	}
	return dir, r
}

// dirMeta reads dir's committed manifest.
func dirMeta(t *testing.T, dir string) storage.Meta {
	t.Helper()
	b, err := storage.OpenFlat(dir)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := b.Meta()
	if err != nil {
		t.Fatal(err)
	}
	return meta
}

// withProcs runs fn at GOMAXPROCS n, which sizes the fan-out pool of every
// repository New makes meanwhile.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// inflight counts the shard reads in progress on the backend it wraps.
type inflight struct {
	storage.Backend
	n atomic.Int64
}

func (b *inflight) ReadCheckpoint(shard string, gen, want uint64, fn func(storage.Record) error) error {
	b.n.Add(1)
	defer b.n.Add(-1)
	return b.Backend.ReadCheckpoint(shard, gen, want, fn)
}

func (b *inflight) ReplayLog(shard string, gen, upTo uint64, fn func(storage.Record) error) error {
	b.n.Add(1)
	defer b.n.Add(-1)
	return b.Backend.ReplayLog(shard, gen, upTo, fn)
}

// TestLoadKillMatrix kills a parallel load before and after every
// checkpoint read and every log replay. Each time LoadStorage must fail
// with ErrKilled and no repository, no shard read may still run once it
// has returned (nor start later), and a load of the same directory, past
// the fault, must yield the full repository.
func TestLoadKillMatrix(t *testing.T) {
	dir, want := logFixture(t)
	shards := len(want.SpecIDs())
	for _, op := range []string{storagetest.OpReadCheckpoint, storagetest.OpReplay} {
		for n := 1; n <= shards; n++ {
			for _, after := range []bool{false, true} {
				mode := "before"
				if after {
					mode = "after"
				}
				t.Run(fmt.Sprintf("%s-%s-%d", mode, op, n), func(t *testing.T) {
					base, err := storage.OpenFlat(dir)
					if err != nil {
						t.Fatal(err)
					}
					f := storagetest.NewFault(base)
					if after {
						f.KillAfter(op, n)
					} else {
						f.KillBefore(op, n)
					}
					b := &inflight{Backend: f}
					var r *Repository
					withProcs(4, func() { r, err = LoadStorage(b, dir) })
					if !errors.Is(err, storagetest.ErrKilled) || r != nil {
						t.Fatalf("LoadStorage = %v, %v; want no repository and ErrKilled", r, err)
					}
					if k := b.n.Load(); k != 0 {
						t.Fatalf("%d shard reads still running after LoadStorage returned", k)
					}
					reads, replays := f.Calls(storagetest.OpReadCheckpoint), f.Calls(storagetest.OpReplay)
					got, err := LoadStorage(f.Unwrap(), dir)
					if err != nil {
						t.Fatalf("load past the fault: %v", err)
					}
					for _, sid := range want.SpecIDs() {
						if w, g := fmt.Sprint(want.ExecutionIDs(sid)), fmt.Sprint(got.ExecutionIDs(sid)); w != g {
							t.Fatalf("load past the fault: %s holds %s, want %s", sid, g, w)
						}
					}
					got.CloseStorage()
					if f.Calls(storagetest.OpReadCheckpoint) != reads || f.Calls(storagetest.OpReplay) != replays || b.n.Load() != 0 {
						t.Fatalf("a shard read of the failed load started after it returned")
					}
				})
			}
		}
	}
}

// TestParallelLoadEqualsSerial loads one directory with a fan-out pool of one
// (a serial load) and of four: both must hold what was saved, with the same
// save bookkeeping, and a first save after either appends and writes nothing.
func TestParallelLoadEqualsSerial(t *testing.T) {
	dir, want := logFixture(t)
	var saved []string
	for _, procs := range []int{1, 4} {
		base, err := storage.OpenFlat(dir)
		if err != nil {
			t.Fatal(err)
		}
		m := storage.NewMeasure(base)
		var r *Repository
		withProcs(procs, func() { r, err = LoadStorage(m, dir) })
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: LoadStorage: %v", procs, err)
		}
		sameStored(t, want, r)
		var b strings.Builder
		for _, sid := range r.SpecIDs() {
			ss := r.bound.shards[sid]
			fmt.Fprintf(&b, "%s seq=%d pol=%d ckpt=%d/%d log=%d/%d execs=%d\n",
				sid, ss.seq, ss.polSeq, ss.ckptGen, ss.ckptRecords, ss.logLen, ss.logRecs, len(ss.execs))
		}
		saved = append(saved, b.String())
		if err := r.Save(dir); err != nil {
			t.Fatalf("GOMAXPROCS %d: Save: %v", procs, err)
		}
		if st := m.Stats(); st.Appends != 0 || st.Checkpoints != 0 {
			t.Fatalf("GOMAXPROCS %d: first save after load made %d appends and %d checkpoints, want none", procs, st.Appends, st.Checkpoints)
		}
		if err := r.CloseStorage(); err != nil {
			t.Fatal(err)
		}
	}
	if saved[0] != saved[1] {
		t.Fatalf("save bookkeeping differs:\nserial:\n%s\nparallel:\n%s", saved[0], saved[1])
	}
}

// TestLoadErrorNamesLowestShard damages two checkpoints: the last frame of
// deep-1's, which a load meets late, and the first of wide-2's, which it
// meets at once. However the parallel reads finish, the error is the one a
// serial load reports: the lower shard id's.
func TestLoadErrorNamesLowestShard(t *testing.T) {
	dir, _ := logFixture(t)
	meta := dirMeta(t, dir)
	corruptCRC := func(sid string, last bool) {
		t.Helper()
		path := filepath.Join(dir, fmt.Sprintf("ckpt-%s-%016x.log", storage.FileBase(sid), meta.Shards[sid].Checkpoint))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		at := 0
		for next := 0; last && next < len(data); next += 8 + int(binary.BigEndian.Uint32(data[next:])) {
			at = next
		}
		data[at+4] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	corruptCRC("deep-1", true)
	corruptCRC("wide-2", false)
	for i := 0; i < 20; i++ {
		var err error
		withProcs(4, func() {
			var r *Repository
			r, err = Load(dir)
			if r != nil {
				t.Fatal("Load of a corrupt directory returned a repository")
			}
		})
		if !errors.Is(err, storage.ErrCorrupt) || !strings.Contains(err.Error(), "load deep-1:") {
			t.Fatalf("run %d: Load = %v, want deep-1's ErrCorrupt", i, err)
		}
	}
}
