package repo

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/storage"
	"provpriv/internal/workload"
)

// crashFixture builds the three-spec repository the crash tests save:
// v1 state is one execution per shard and the synthetic policy (which
// always carries module levels).
func crashFixture(t *testing.T) *Repository {
	t.Helper()
	r := New()
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("s%d", i)
		_, add := makeSynthSpec(t, int64(i), id)
		add(r)
		s := r.Spec(id)
		e, err := exec.NewRunner(s, nil).Run(id+"-E0", workload.RandomInputs(s, int64(i)))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if err := r.AddExecution(e); err != nil {
			t.Fatalf("AddExecution: %v", err)
		}
	}
	r.AddUser(privacy.User{Name: "ana", Level: privacy.Analyst, Group: "g"})
	return r
}

// v2Execs is how many executions a shard holds in its v2 state.
const v2Execs = 6

// mutateToV2 moves every shard to its v2 state — five more executions
// (shapedRuns), so that the one append of the v2 save carries value records
// naming E0 from the checkpoint beside the first execution of a shape the
// store has not seen and, ahead of it in id order, one that names it: no
// kill point may leave a generation in which a value record lacks the
// execution it names — and an all-public replacement policy (module levels
// cleared — the marker snapshotVersion keys on).
func mutateToV2(t *testing.T, r *Repository) {
	t.Helper()
	for i := 0; i < 3; i++ {
		sid := fmt.Sprintf("s%d", i)
		for _, e := range shapedRuns(t, r.Spec(sid), sid, int64(100+i)) {
			if err := r.AddExecution(e); err != nil {
				t.Fatalf("AddExecution: %v", err)
			}
		}
		if err := r.UpdatePolicy(sid, nil); err != nil {
			t.Fatalf("UpdatePolicy: %v", err)
		}
	}
}

// snapshotVersion classifies a loaded repository as all-v1 or all-v2
// and fails the test on any mixed-generation state — the torn-snapshot
// condition this PR exists to rule out.
func snapshotVersion(t *testing.T, r *Repository) int {
	t.Helper()
	ver := 0
	for i := 0; i < 3; i++ {
		sid := fmt.Sprintf("s%d", i)
		sh := r.shard(sid)
		if sh == nil {
			t.Fatalf("shard %s missing after load", sid)
		}
		sh.mu.RLock()
		execN, mods, shapes := len(sh.execs), len(sh.gen.pol.ModuleLevels), sh.shapes.Len()
		sh.mu.RUnlock()
		var v int
		switch {
		case execN == 1 && mods > 0:
			v = 1
		case execN == v2Execs && mods == 0 && shapes == 2:
			v = 2
		default:
			t.Fatalf("shard %s torn: %d execs of %d shapes with %d module levels", sid, execN, shapes, mods)
		}
		if ver == 0 {
			ver = v
		} else if v != ver {
			t.Fatalf("mixed generations: shard %s is v%d, earlier shards v%d", sid, v, ver)
		}
	}
	return ver
}

// TestTornSnapshotKillMatrix is the regression test for the
// torn-snapshot bug: a save of a multi-shard v2 snapshot is killed at
// every backend call boundary — before and after each shard write and
// the manifest commit — and after every injected crash the directory
// must load as a single consistent generation: complete v1 until the
// commit lands, complete v2 once it has. A recovery save must then
// bring the directory fully to v2. (Save only ever appends deltas now;
// the checkpoint-write crash points live in the background-fold matrix
// below.)
func TestTornSnapshotKillMatrix(t *testing.T) {
	type kp struct {
		op    string
		n     int
		after bool
	}
	var points []kp
	for n := 1; n <= 3; n++ {
		points = append(points, kp{storage.OpAppend, n, false}, kp{storage.OpAppend, n, true})
	}
	points = append(points, kp{storage.OpCommit, 1, false}, kp{storage.OpCommit, 1, true})
	// The "flat" level is from when there were two backends; it stays so
	// the kill points keep the names they have had since PR 6.
	t.Run("flat", func(t *testing.T) {
		for _, p := range points {
			mode := "before"
			if p.after {
				mode = "after"
			}
			t.Run(fmt.Sprintf("%s-%s-%d", mode, p.op, p.n), func(t *testing.T) {
				dir := t.TempDir()
				r := crashFixture(t)
				base, err := storage.OpenFlat(dir)
				if err != nil {
					t.Fatalf("open backend: %v", err)
				}
				f := storage.NewFault(base)
				if err := r.BindStorage(f, dir); err != nil {
					t.Fatalf("BindStorage: %v", err)
				}
				if err := r.Save(dir); err != nil {
					t.Fatalf("v1 save: %v", err)
				}
				mutateToV2(t, r)
				// Kill points are relative to the v2 save: offset by the
				// calls the v1 save already made.
				n := f.Calls(p.op) + p.n
				if p.after {
					f.KillAfter(p.op, n)
				} else {
					f.KillBefore(p.op, n)
				}
				if err := r.Save(dir); err == nil {
					t.Fatalf("kill point %s %s #%d never fired", mode, p.op, p.n)
				}
				r2, err := Load(dir)
				if err != nil {
					t.Fatalf("Load after injected crash: %v", err)
				}
				got := snapshotVersion(t, r2)
				r2.CloseStorage()
				want := 1
				if p.op == storage.OpCommit && p.after {
					// The manifest landed before the crash: v2 is committed.
					want = 2
				}
				if got != want {
					t.Fatalf("loaded v%d after crash %s %s #%d, want v%d", got, mode, p.op, p.n, want)
				}
				// The failed save dropped the binding; a fresh save must
				// recover the directory to complete v2.
				if err := r.Save(dir); err != nil {
					t.Fatalf("recovery save: %v", err)
				}
				r3, err := Load(dir)
				if err != nil {
					t.Fatalf("Load after recovery: %v", err)
				}
				if got := snapshotVersion(t, r3); got != 2 {
					t.Fatalf("recovery save left v%d, want v2", got)
				}
				sameStored(t, r, r3)
				r3.CloseStorage()
				r.CloseStorage()
			})
		}
	})
}

// TestBackgroundFoldKillMatrix extends the kill matrix to crashes
// landing inside a background compaction fold: after a committed v2
// save, CompactShard runs over every shard with a kill injected at each
// checkpoint-write and manifest-commit boundary. A fold only rewrites
// committed data, so whatever the crash point, a reload must always be
// complete v2 — compaction can never lose or tear a snapshot — and a
// recovery save through a fresh binding must succeed, after which
// compaction completes cleanly.
func TestBackgroundFoldKillMatrix(t *testing.T) {
	type kp struct {
		op    string
		n     int // nth fold op during the compaction pass (1-based)
		after bool
	}
	var points []kp
	for n := 1; n <= 3; n++ {
		points = append(points,
			kp{storage.OpWriteCheckpoint, n, false}, kp{storage.OpWriteCheckpoint, n, true},
			kp{storage.OpCommit, n, false}, kp{storage.OpCommit, n, true})
	}
	// The "flat" level is from when there were two backends; it stays so
	// the kill points keep the names they have had since PR 6.
	t.Run("flat", func(t *testing.T) {
		for _, p := range points {
			mode := "before"
			if p.after {
				mode = "after"
			}
			t.Run(fmt.Sprintf("%s-%s-%d", mode, p.op, p.n), func(t *testing.T) {
				dir := t.TempDir()
				r := crashFixture(t)
				base, err := storage.OpenFlat(dir)
				if err != nil {
					t.Fatalf("open backend: %v", err)
				}
				f := storage.NewFault(base)
				if err := r.BindStorage(f, dir); err != nil {
					t.Fatalf("BindStorage: %v", err)
				}
				if err := r.Save(dir); err != nil {
					t.Fatalf("v1 save: %v", err)
				}
				mutateToV2(t, r)
				if err := r.Save(dir); err != nil {
					t.Fatalf("v2 save: %v", err)
				}
				// Kill points are relative to the compaction pass: offset
				// by the calls the two saves already made.
				n := f.Calls(p.op) + p.n
				if p.after {
					f.KillAfter(p.op, n)
				} else {
					f.KillBefore(p.op, n)
				}
				var foldErr error
				for i := 0; i < 3; i++ {
					if err := r.CompactShard(fmt.Sprintf("s%d", i)); err != nil {
						foldErr = err
						break
					}
				}
				if foldErr == nil {
					t.Fatalf("kill point %s %s #%d never fired", mode, p.op, p.n)
				}
				// A fold crash can never cost data: reload is complete v2
				// no matter where the kill landed.
				r2, err := Load(dir)
				if err != nil {
					t.Fatalf("Load after injected fold crash: %v", err)
				}
				if got := snapshotVersion(t, r2); got != 2 {
					t.Fatalf("loaded v%d after fold crash %s %s #%d, want v2", got, mode, p.op, p.n)
				}
				r2.CloseStorage()
				// The failed fold dropped the binding; the next save rebinds
				// and rewrites, and compaction then completes cleanly.
				if err := r.Save(dir); err != nil {
					t.Fatalf("recovery save: %v", err)
				}
				for i := 0; i < 3; i++ {
					if err := r.CompactShard(fmt.Sprintf("s%d", i)); err != nil {
						t.Fatalf("compaction after recovery: %v", err)
					}
				}
				r3, err := Load(dir)
				if err != nil {
					t.Fatalf("Load after recovery: %v", err)
				}
				if got := snapshotVersion(t, r3); got != 2 {
					t.Fatalf("recovery left v%d, want v2", got)
				}
				sameStored(t, r, r3)
				r3.CloseStorage()
				r.CloseStorage()
			})
		}
	})
}

// TestLoadDuringSaveSingleGeneration interleaves concurrent Loads with
// a writer that keeps adding one execution to every shard and saving:
// each successful Load must observe the same execution count on every
// shard — one committed generation, never a cross-shard mix. The
// compaction threshold is lowered so checkpoint folds and pruning
// happen mid-churn; a reader that falls more than one commit behind may
// lose its files to pruning and is allowed to retry.
func TestLoadDuringSaveSingleGeneration(t *testing.T) {
	oldThreshold := compactThreshold
	compactThreshold = 5
	defer func() { compactThreshold = oldThreshold }()
	t.Run("flat", func(t *testing.T) {
		dir := t.TempDir()
		r := crashFixture(t)
		if err := r.Save(dir); err != nil {
			t.Fatalf("initial save: %v", err)
		}
		defer r.CloseStorage()
		const rounds = 8
		var wg sync.WaitGroup
		var loads atomic.Int64
		done := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done)
			for v := 1; v <= rounds; v++ {
				for i := 0; i < 3; i++ {
					sid := fmt.Sprintf("s%d", i)
					s := r.Spec(sid)
					e, err := exec.NewRunner(s, nil).Run(
						fmt.Sprintf("%s-E%d", sid, v), workload.RandomInputs(s, int64(100*v+i)))
					if err != nil {
						t.Errorf("Run: %v", err)
						return
					}
					if err := r.AddExecution(e); err != nil {
						t.Errorf("AddExecution: %v", err)
						return
					}
				}
				if err := r.Save(dir); err != nil {
					t.Errorf("save round %d: %v", v, err)
					return
				}
			}
		}()
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					r2, err := Load(dir)
					if err != nil {
						continue // pruned under us: >1 commit behind, retry
					}
					want := -1
					for i := 0; i < 3; i++ {
						sh := r2.shard(fmt.Sprintf("s%d", i))
						if sh == nil {
							t.Error("loaded repo missing a shard")
							return
						}
						sh.mu.RLock()
						n := len(sh.execs)
						sh.mu.RUnlock()
						if want == -1 {
							want = n
						} else if n != want {
							t.Errorf("mixed generations: shard s%d has %d execs, s0 has %d", i, n, want)
							return
						}
					}
					r2.CloseStorage()
					loads.Add(1)
				}
			}()
		}
		wg.Wait()
		if loads.Load() == 0 {
			t.Fatal("no concurrent Load ever succeeded")
		}
	})
}

// TestLoadRejectsLegacyLayout: a directory in a layout this tree no
// longer reads — pre-log (a manifest without a format, per-entity JSON
// files beside it) or KV-backend (store.kv and no manifest.json, which a
// flat store would otherwise take for empty and save over) — is refused
// by Load, by BindStorage and by a Save that would bind to it, with the
// layout's sentinel, and none of its files is touched.
func TestLoadRejectsLegacyLayout(t *testing.T) {
	for name, tc := range map[string]struct {
		files map[string]string
		want  error
	}{
		"pre-log": {map[string]string{
			"manifest.json": `{"specs":["spec-0.json"],"policies":["policy-0.json"],"executions":["exec-0-0.json"]}`,
			"spec-0.json":   `{"id":"s0"}`,
			"policy-0.json": `{"spec_id":"s0"}`,
			"exec-0-0.json": `{"id":"s0-E0"}`,
		}, storage.ErrLegacyLayout},
		"kv": {map[string]string{
			"store.kv": "\x00\x00\x00\x10kv frames, not ours to parse",
		}, storage.ErrKVLayout},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			for name, body := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := Load(dir); !errors.Is(err, tc.want) {
				t.Fatalf("Load = %v, want %v", err, tc.want)
			}
			b, err := storage.OpenFlat(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			r := crashFixture(t)
			if err := r.BindStorage(b, dir); !errors.Is(err, tc.want) {
				t.Fatalf("BindStorage = %v, want %v", err, tc.want)
			}
			if _, err := LoadStorage(b, dir); !errors.Is(err, tc.want) {
				t.Fatalf("LoadStorage = %v, want %v", err, tc.want)
			}
			if err := r.Save(dir); !errors.Is(err, tc.want) {
				t.Fatalf("Save = %v, want %v", err, tc.want)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != len(tc.files) {
				t.Fatalf("directory now holds %d entries, want the original %d", len(entries), len(tc.files))
			}
			for name, body := range tc.files {
				if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(got) != body {
					t.Fatalf("%s changed: %q (err=%v)", name, got, err)
				}
			}
		})
	}
}

// TestSaveNeverFoldsInline is the op-counter proof that compaction left
// the save path: repeated saves past the threshold only ever append —
// the measured backend's checkpoint counter stays at the initial shard
// write — while NeedsCompaction nominates the outgrown shard for the
// background fold, and CompactShard then folds it into a fresh
// checkpoint with an empty log, preserving every execution.
func TestSaveNeverFoldsInline(t *testing.T) {
	oldThreshold := compactThreshold
	compactThreshold = 2
	defer func() { compactThreshold = oldThreshold }()
	dir := t.TempDir()
	r := New()
	_, add := makeSynthSpec(t, 1, "s")
	add(r)
	s := r.Spec("s")
	b, err := storage.OpenFlat(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := storage.NewMeasure(b)
	if err := r.BindStorage(m, dir); err != nil {
		t.Fatalf("BindStorage: %v", err)
	}
	// Ids run downwards and every third run has other process ids: the first
	// execution of either shape sorts after the ones stored beside it, so the
	// fold has to write it ahead of its turn.
	const rounds = 6
	for i := 0; i < rounds; i++ {
		e, err := exec.NewRunner(s, nil).Run(fmt.Sprintf("s-E%d", rounds-1-i), workload.RandomInputs(s, int64(i)))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if i%3 == 1 {
			e = reproc(e, e.ID)
		}
		if err := r.AddExecution(e); err != nil {
			t.Fatalf("AddExecution: %v", err)
		}
		if err := r.Save(dir); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	defer r.CloseStorage()
	// Save 1 wrote the shard's initial checkpoint; every later save must
	// append its delta no matter how far the log outgrows the threshold.
	st := m.Stats()
	if st.Checkpoints != 1 {
		t.Fatalf("saves performed %d checkpoint writes, want 1 (inline folding is gone)", st.Checkpoints)
	}
	if st.Appends != rounds-1 {
		t.Errorf("saves performed %d appends, want %d", st.Appends, rounds-1)
	}
	if got := r.NeedsCompaction(); len(got) != 1 || got[0] != "s" {
		t.Fatalf("NeedsCompaction = %v, want [s]", got)
	}
	if err := r.CompactShard("s"); err != nil {
		t.Fatalf("CompactShard: %v", err)
	}
	if st := m.Stats(); st.Checkpoints != 2 {
		t.Fatalf("fold wrote %d checkpoints total, want 2", st.Checkpoints)
	}
	if got := r.NeedsCompaction(); len(got) != 0 {
		t.Fatalf("NeedsCompaction after fold = %v, want empty", got)
	}
	// The committed manifest points at the folded checkpoint, empty log.
	meta, err := m.Meta()
	if err != nil {
		t.Fatal(err)
	}
	info, ok := meta.Shards["s"]
	if !ok {
		t.Fatalf("no shard in manifest: %+v", meta)
	}
	if info.LogLen != 0 || info.Checkpoint != meta.Generation {
		t.Fatalf("log not folded: checkpoint gen %d/%d, log len %d", info.Checkpoint, meta.Generation, info.LogLen)
	}
	r2, err := Load(dir)
	if err != nil {
		t.Fatalf("Load after fold: %v", err)
	}
	defer r2.CloseStorage()
	sh := r2.shard("s")
	sh.mu.RLock()
	n := len(sh.execs)
	sh.mu.RUnlock()
	if n != rounds {
		t.Fatalf("fold lost executions: %d, want %d", n, rounds)
	}
	sameStored(t, r, r2)
	if k := storedRecords(t, dir); k[storage.RecExec] != 2 || k[storage.RecValues] != rounds-2 {
		t.Fatalf("the fold wrote %d full and %d value records, want 2 and %d", k[storage.RecExec], k[storage.RecValues], rounds-2)
	}
	// Folding is idempotent and cheap to re-check: a second CompactShard
	// is a no-op.
	if err := r.CompactShard("s"); err != nil {
		t.Fatalf("re-compact: %v", err)
	}
	if st := m.Stats(); st.Checkpoints != 2 {
		t.Fatalf("re-compact wrote a checkpoint: %d total", st.Checkpoints)
	}
}

// TestCompactShardConflictAndRetry pins the fold's optimistic race
// check: a mutation wedged between the snapshot and the commit makes
// the fold lose with ErrCompactConflict (the retryable outcome the task
// runtime backs off on), unsaved mutations also conflict, and after the
// next save the retried fold wins.
func TestCompactShardConflictAndRetry(t *testing.T) {
	oldThreshold := compactThreshold
	compactThreshold = 0
	defer func() { compactThreshold = oldThreshold }()
	dir := t.TempDir()
	r := New()
	_, add := makeSynthSpec(t, 1, "s")
	add(r)
	s := r.Spec("s")
	addExec := func(i int) {
		t.Helper()
		e, err := exec.NewRunner(s, nil).Run(fmt.Sprintf("s-E%d", i), workload.RandomInputs(s, int64(i)))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if err := r.AddExecution(e); err != nil {
			t.Fatalf("AddExecution: %v", err)
		}
	}
	addExec(0)
	if err := r.Save(dir); err != nil {
		t.Fatalf("save: %v", err)
	}
	defer r.CloseStorage()
	addExec(1)
	if err := r.Save(dir); err != nil {
		t.Fatalf("save: %v", err)
	}
	// Snapshot, then let a newer save land before the commit: the fold's
	// records no longer match the committed extent — it must lose, or the
	// commit would point the manifest at a checkpoint missing E2.
	snap, _ := snapshotShardState(r.shard("s"), nil)
	addExec(2)
	if err := r.Save(dir); err != nil {
		t.Fatalf("save: %v", err)
	}
	if err := r.compactFrom("s", snap); !errors.Is(err, ErrCompactConflict) {
		t.Fatalf("fold racing a newer save = %v, want ErrCompactConflict", err)
	}
	// A fold over unsaved mutations also conflicts: the snapshot holds
	// state the store has never committed.
	addExec(3)
	if err := r.CompactShard("s"); !errors.Is(err, ErrCompactConflict) {
		t.Fatalf("fold over unsaved mutations = %v, want ErrCompactConflict", err)
	}
	// The retry after the next save wins.
	if err := r.Save(dir); err != nil {
		t.Fatalf("save: %v", err)
	}
	if err := r.CompactShard("s"); err != nil {
		t.Fatalf("retried fold: %v", err)
	}
	r2, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	defer r2.CloseStorage()
	sh := r2.shard("s")
	sh.mu.RLock()
	n := len(sh.execs)
	sh.mu.RUnlock()
	if n != 4 {
		t.Fatalf("fold lost executions: %d, want 4", n)
	}
	sameStored(t, r, r2)
	// Unbound repository: compaction has nothing to write to.
	if err := New().CompactShard("s"); err != nil {
		t.Fatalf("CompactShard on empty repo = %v, want nil (no shard)", err)
	}
	r3 := New()
	_, add3 := makeSynthSpec(t, 2, "s")
	add3(r3)
	if err := r3.CompactShard("s"); !errors.Is(err, ErrNoStorage) {
		t.Fatalf("CompactShard without storage = %v, want ErrNoStorage", err)
	}
}

// TestGeneralizationPersists: installed ladders survive the save/load
// round trip — a loaded repository generalizes instead of redacting,
// exactly like the one that saved it. (Before the log engine, ladders
// were never persisted at all.)
func TestGeneralizationPersists(t *testing.T) {
	r := seededRepo(t)
	if err := r.SetGeneralization("disease-susceptibility", snpsLadder()); err != nil {
		t.Fatalf("SetGeneralization: %v", err)
	}
	dir := t.TempDir()
	if err := r.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	r2, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	defer r2.CloseStorage()
	snpID := itemByAttr(t, r, "snps")
	progID := itemByAttr(t, r, "prognosis")
	want, err := r.Provenance("bob", "disease-susceptibility", "E1", progID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r2.Provenance("bob", "disease-susceptibility", "E1", progID)
	if err != nil {
		t.Fatal(err)
	}
	wi, gi := want.Items[snpID], got.Items[snpID]
	if wi == nil || gi == nil {
		t.Fatalf("snps item missing: %v vs %v", wi, gi)
	}
	if gi.Redacted || gi.Value != wi.Value || gi.Value == "rs1" {
		t.Fatalf("ladders lost in round trip: loaded %+v, want %+v", gi, wi)
	}
}
