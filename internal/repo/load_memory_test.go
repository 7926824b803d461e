package repo

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"provpriv/internal/storage"
	"provpriv/internal/workflow"
)

// TestLoadKeepsNoReaderBytes: a streamed record's Data lives in memory the
// storage readers reuse, so a loader that kept any of it would see it
// rewritten by the next read. Directory A is loaded, then directory B, of
// other specs and values, through the same pooled readers (the collector is
// off, so the pool keeps them); A's repository must still hold every spec
// and value it was saved with, as must a fresh load of A.
func TestLoadKeepsNoReaderBytes(t *testing.T) {
	dirA, want := logFixture(t)
	other := New()
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("other-%d", i)
		_, add := makeSynthSpec(t, int64(100+i), id)
		add(other)
		addRuns(t, other, id, 30, false)
	}
	dirB := t.TempDir()
	if err := other.Save(dirB); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := other.CloseStorage(); err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	a, err := Load(dirA)
	if err != nil {
		t.Fatalf("Load A: %v", err)
	}
	defer a.CloseStorage()
	b, err := Load(dirB)
	if err != nil {
		t.Fatalf("Load B: %v", err)
	}
	defer b.CloseStorage()
	sameStored(t, want, a)
	sameStored(t, other, b)
	fresh, err := Load(dirA)
	if err != nil {
		t.Fatalf("Load A again: %v", err)
	}
	defer fresh.CloseStorage()
	sameStored(t, fresh, a)
}

// TestLoadAllocBudget: a load allocates what it keeps plus reused reader
// memory, not a copy of every checkpoint beside the values decoded from
// it. One LoadStorage of BenchmarkLoadStorage's many-shards directory may
// allocate at most 1.5 times the directory's bytes on disk (it allocated
// 2.4 times when every file was read whole and every value was a string of
// its own). It loads at GOMAXPROCS 2, so the readers the fan-out workers
// hold do not scale with the machine.
func TestLoadAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what a load allocates")
	}
	if testing.Short() {
		t.Skip("builds a 3152-run directory")
	}
	r := manyShards(t, 48, 24, 2, 1000)
	dir := t.TempDir()
	if err := r.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := r.CloseStorage(); err != nil {
		t.Fatal(err)
	}
	var disk int64
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		disk += fi.Size()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var loaded *Repository
	withProcs(2, func() { loaded, err = Load(dir) })
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	defer loaded.CloseStorage()
	alloc := after.TotalAlloc - before.TotalAlloc
	ratio := float64(alloc) / float64(disk)
	t.Logf("load allocated %d bytes for %d on disk (×%.2f)", alloc, disk, ratio)
	if ratio > 1.5 {
		t.Fatalf("load allocated %d bytes, ×%.2f the %d bytes on disk; budget ×1.5", alloc, ratio, disk)
	}
}

// TestLoadValidatesSpecOnce: the load path only reads a spec record, and
// newShard's Validate is the one check. A checkpoint whose spec record is
// well-formed JSON that fails Validate — an edge to a module its workflow
// lacks, a null workflow, a null module — still fails LoadStorage, with
// Validate's error and the shard's name, and panics nowhere.
func TestLoadValidatesSpecOnce(t *testing.T) {
	for _, c := range []struct {
		name   string
		damage func(*workflow.Spec)
	}{
		{"edge to a missing module", func(s *workflow.Spec) {
			root := s.RootWorkflow()
			root.Edges = append(root.Edges, workflow.Edge{From: root.Modules[0].ID, To: "no-such-module", Data: []string{"x"}})
		}},
		{"null workflow", func(s *workflow.Spec) { s.Workflows["null"] = nil }},
		{"null module", func(s *workflow.Spec) {
			root := s.RootWorkflow()
			root.Modules = append(root.Modules, nil)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			src := New()
			_, add := makeSynthSpec(t, 1, "broken")
			add(src)
			data, err := json.Marshal(src.Spec("broken"))
			if err != nil {
				t.Fatal(err)
			}
			bad, err := workflow.DecodeSpec(data)
			if err != nil {
				t.Fatal(err)
			}
			c.damage(bad)
			wantErr := bad.Validate()
			if wantErr == nil {
				t.Fatal("fixture: the damaged spec validates")
			}
			if data, err = json.Marshal(bad); err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			b, err := storage.OpenFlat(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.WriteCheckpoint("broken", 1, []storage.Record{{Type: storage.RecSpec, Key: "broken", Data: data}}); err != nil {
				t.Fatal(err)
			}
			if err := b.Commit(storage.Meta{Generation: 1, Shards: map[string]storage.ShardInfo{"broken": {Checkpoint: 1, Records: 1}}}); err != nil {
				t.Fatal(err)
			}
			r, err := LoadStorage(b, dir)
			if err == nil {
				r.CloseStorage()
				t.Fatal("LoadStorage accepted a spec that fails Validate")
			}
			if !strings.Contains(err.Error(), wantErr.Error()) || !strings.Contains(err.Error(), "load broken") {
				t.Fatalf("LoadStorage = %v, want Validate's error (%v) naming shard broken", err, wantErr)
			}
		})
	}
}
