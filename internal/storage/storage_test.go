package storage_test

import (
	"errors"
	"path/filepath"
	"testing"

	"provpriv/internal/storage"
	"provpriv/internal/storage/storagetest"
)

func TestFlatConformance(t *testing.T) {
	storagetest.Conformance(t, func(dir string) (storage.Backend, error) {
		return storage.OpenFlat(dir)
	})
}

func TestMeasuredFlatConformance(t *testing.T) {
	// The metrics wrapper must be behaviorally transparent.
	storagetest.Conformance(t, func(dir string) (storage.Backend, error) {
		b, err := storage.OpenFlat(dir)
		if err != nil {
			return nil, err
		}
		return storage.NewMeasure(b), nil
	})
}

func TestFaultWrapperUnarmedConformance(t *testing.T) {
	// A Fault with no kill points armed must also be transparent.
	storagetest.Conformance(t, func(dir string) (storage.Backend, error) {
		b, err := storage.OpenFlat(dir)
		if err != nil {
			return nil, err
		}
		return storagetest.NewFault(b), nil
	})
}

func TestMeasureCounts(t *testing.T) {
	b, err := storage.OpenFlat(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := storage.NewMeasure(b)
	defer m.Close()
	recs := []storage.Record{{Type: storage.RecSpec, Key: "s", Data: []byte("x")}}
	if err := m.WriteCheckpoint("s", 1, recs); err != nil {
		t.Fatal(err)
	}
	ln, err := m.Append("s", 1, 0, recs)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(storage.Meta{Generation: 1, Shards: map[string]storage.ShardInfo{
		"s": {Checkpoint: 1, Records: 1, LogLen: ln},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := m.ReplayLog("s", 1, ln, func(storage.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Checkpoints != 1 || st.CheckpointRecords != 1 {
		t.Errorf("checkpoints = %d/%d records, want 1/1", st.Checkpoints, st.CheckpointRecords)
	}
	if st.Appends != 1 || st.AppendRecords != 1 {
		t.Errorf("appends = %d/%d records, want 1/1", st.Appends, st.AppendRecords)
	}
	if st.Commits != 1 {
		t.Errorf("commits = %d, want 1", st.Commits)
	}
	if st.Replays != 1 || st.ReplayRecords != 1 {
		t.Errorf("replays = %d/%d records, want 1/1", st.Replays, st.ReplayRecords)
	}
	if st.Errors != 0 {
		t.Errorf("errors = %d, want 0", st.Errors)
	}
	// A failing read counts as an error.
	if err := m.ReadCheckpoint("missing", 9, 1, func(storage.Record) error { return nil }); err == nil {
		t.Fatal("expected read of missing checkpoint to fail")
	}
	if got := m.Stats().Errors; got != 1 {
		t.Errorf("errors after failed read = %d, want 1", got)
	}
}

func TestFaultKillBefore(t *testing.T) {
	b, err := storage.OpenFlat(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := storagetest.NewFault(b)
	defer f.Close()
	f.KillBefore(storagetest.OpCommit, 1)
	recs := []storage.Record{{Type: storage.RecSpec, Key: "s", Data: []byte("x")}}
	if err := f.WriteCheckpoint("s", 1, recs); err != nil {
		t.Fatal(err)
	}
	err = f.Commit(storage.Meta{Generation: 1, Shards: map[string]storage.ShardInfo{
		"s": {Checkpoint: 1, Records: 1},
	}})
	if !errors.Is(err, storagetest.ErrKilled) {
		t.Fatalf("commit err = %v, want ErrKilled", err)
	}
	if !f.Dead() {
		t.Fatal("fault not dead after kill")
	}
	// Dead stays dead.
	if err := f.WriteCheckpoint("s", 2, recs); !errors.Is(err, storagetest.ErrKilled) {
		t.Fatalf("post-death write err = %v, want ErrKilled", err)
	}
	// The kill fired before the operation: nothing was committed.
	m, err := f.Unwrap().Meta()
	if err != nil {
		t.Fatal(err)
	}
	if m.Generation != 0 {
		t.Fatalf("commit ran despite KillBefore: %+v", m)
	}
}

func TestFaultKillAfter(t *testing.T) {
	b, err := storage.OpenFlat(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := storagetest.NewFault(b)
	defer f.Close()
	f.KillAfter(storagetest.OpCommit, 1)
	recs := []storage.Record{{Type: storage.RecSpec, Key: "s", Data: []byte("x")}}
	if err := f.WriteCheckpoint("s", 1, recs); err != nil {
		t.Fatal(err)
	}
	err = f.Commit(storage.Meta{Generation: 1, Shards: map[string]storage.ShardInfo{
		"s": {Checkpoint: 1, Records: 1},
	}})
	if !errors.Is(err, storagetest.ErrKilled) {
		t.Fatalf("commit err = %v, want ErrKilled", err)
	}
	// KillAfter: the commit landed even though the caller saw a crash.
	m, err := f.Unwrap().Meta()
	if err != nil {
		t.Fatal(err)
	}
	if m.Generation != 1 {
		t.Fatalf("commit lost despite KillAfter: %+v", m)
	}
	if f.Calls(storagetest.OpCommit) != 1 || f.Calls(storagetest.OpWriteCheckpoint) != 1 {
		t.Fatalf("call counts: commit=%d checkpoint=%d",
			f.Calls(storagetest.OpCommit), f.Calls(storagetest.OpWriteCheckpoint))
	}
}

// parkedAppends parks Append calls on the shard "slow" until gate closes.
type parkedAppends struct {
	storage.Backend
	entered chan struct{}
	gate    chan struct{}
}

func (p *parkedAppends) Append(shard string, gen, at uint64, recs []storage.Record) (uint64, error) {
	if shard == "slow" {
		p.entered <- struct{}{}
		<-p.gate
	}
	return p.Backend.Append(shard, gen, at, recs)
}

// TestFaultKillAfterWithOverlappingCalls: "after Append #1" names the
// first call to enter, and still fires when a second call entered (and
// finished) while the first was inside the backend.
func TestFaultKillAfterWithOverlappingCalls(t *testing.T) {
	b, err := storage.OpenFlat(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := &parkedAppends{Backend: b, entered: make(chan struct{}), gate: make(chan struct{})}
	f := storagetest.NewFault(p)
	defer f.Close()
	f.KillAfter(storagetest.OpAppend, 1)
	recs := []storage.Record{{Type: storage.RecExec, Key: "e", Data: []byte("x")}}
	first := make(chan error, 1)
	go func() {
		_, err := f.Append("slow", 1, 0, recs)
		first <- err
	}()
	<-p.entered
	if _, err := f.Append("fast", 1, 0, recs); err != nil {
		t.Fatalf("Append #2, overlapping #1, = %v; the kill is armed for #1", err)
	}
	close(p.gate)
	if err := <-first; !errors.Is(err, storagetest.ErrKilled) {
		t.Fatalf("Append #1 = %v, want ErrKilled once it completed", err)
	}
	if !f.Dead() {
		t.Fatal("fault not dead after the kill point")
	}
}

func TestFileBaseDistinct(t *testing.T) {
	// Ids that sanitize to the same prefix must still map to distinct
	// bases, and the base must be filesystem-safe.
	a, b := storage.FileBase("wf/one"), storage.FileBase("wf:one")
	if a == b {
		t.Fatalf("distinct ids collided: %q", a)
	}
	for _, s := range []string{a, b} {
		if s != filepath.Base(s) {
			t.Fatalf("base %q is not a plain file name", s)
		}
	}
	if storage.FileBase("x") != storage.FileBase("x") {
		t.Fatal("FileBase not deterministic")
	}
}
