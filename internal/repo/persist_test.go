package repo

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"provpriv/internal/storage"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := seededRepo(t)
	if err := r.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	r2, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	a, b := content(r.Stats()), content(r2.Stats())
	if a != b {
		t.Fatalf("stats differ: %+v vs %+v", a, b)
	}
	// Search behaves identically after the round trip (incl. policies).
	for _, user := range []string{"alice", "bob", "carol"} {
		h1, err1 := r.Search(user, "database, disorder risks", SearchOptions{})
		h2, err2 := r2.Search(user, "database, disorder risks", SearchOptions{})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: err mismatch %v vs %v", user, err1, err2)
		}
		if len(h1) != len(h2) {
			t.Fatalf("%s: hit counts %d vs %d", user, len(h1), len(h2))
		}
		for i := range h1 {
			if h1[i].SpecID != h2[i].SpecID ||
				strings.Join(h1[i].Result.Prefix().IDs(), ",") != strings.Join(h2[i].Result.Prefix().IDs(), ",") {
				t.Fatalf("%s: hit %d differs", user, i)
			}
		}
	}
	// Provenance answers match too.
	ans1, err := r.Query("alice", "disease-susceptibility", "E1", `MATCH a = "reformat"`)
	if err != nil {
		t.Fatalf("Query r: %v", err)
	}
	ans2, err := r2.Query("alice", "disease-susceptibility", "E1", `MATCH a = "reformat"`)
	if err != nil {
		t.Fatalf("Query r2: %v", err)
	}
	if len(ans1.Bindings) != len(ans2.Bindings) {
		t.Fatal("query answers differ after round trip")
	}
	// Shards whose executions share shapes: one full record per shape, a value
	// record for every other execution, each after the one it names, and what
	// loads back serializes byte for byte as what was added — over one copy of
	// the structure per shape.
	shaped := shapedRepo(t)
	dir = t.TempDir()
	if err := shaped.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	defer loaded.CloseStorage()
	sameStored(t, shaped, loaded)
	if k := storedRecords(t, dir); k[storage.RecExec] != 4 || k[storage.RecValues] != 6 {
		t.Fatalf("stored %d full and %d value records, want 4 (two shapes in each of two shards) and 6", k[storage.RecExec], k[storage.RecValues])
	}
	if n, shapes := sharesPerShape(t, loaded), loaded.Stats().ExecShapes; n != 6 || shapes != 4 || shapes != shaped.Stats().ExecShapes {
		t.Fatalf("loaded %d executions sharing the structure of %d shapes, want 6 of 4", n, shapes)
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing dir accepted")
	}
}

// TestLoadStorageOnEmptyStore: an empty store loads as an empty, bound
// repository — the one way a server opens a -data directory, fresh or not
// — and its first Save commits generation 1 through that binding. Load,
// by contrast, refuses the same directory and leaves it empty.
func TestLoadStorageOnEmptyStore(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(dir); err == nil {
		t.Fatal("Load accepted a directory with no manifest")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("Load left %d entries in the directory it refused", len(entries))
	}
	b, err := storage.OpenFlat(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := storage.NewMeasure(b)
	r, err := LoadStorage(m, dir)
	if err != nil {
		t.Fatalf("LoadStorage on an empty store: %v", err)
	}
	defer r.CloseStorage()
	if !r.StorageBound() || len(r.SpecIDs()) != 0 {
		t.Fatalf("bound=%v specs=%v, want a bound, empty repository", r.StorageBound(), r.SpecIDs())
	}
	_, add := makeSynthSpec(t, 2, "s")
	add(r)
	if err := r.Save(dir); err != nil {
		t.Fatalf("first Save: %v", err)
	}
	if meta, err := m.Meta(); err != nil || meta.Generation != 1 || len(meta.Shards) != 1 {
		t.Fatalf("after the first Save: meta %+v, err %v; want generation 1 with one shard", meta, err)
	}
	if st := m.Stats(); st.Commits != 1 || st.Checkpoints != 1 {
		t.Fatalf("first Save went around the bound backend: %+v", st)
	}
}

func TestLoadCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
}

func TestLoadCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	r := seededRepo(t)
	if err := r.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	// Damage a committed checkpoint: the CRC framing must reject it as
	// corruption, never load a truncated shard silently.
	ckpts, err := filepath.Glob(filepath.Join(dir, "ckpt-*.log"))
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("no checkpoint files written (err=%v)", err)
	}
	if err := os.WriteFile(ckpts[0], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}

func TestSaveManifestIsLogFormat(t *testing.T) {
	// The committed manifest carries the log-engine format marker and a
	// generation-numbered checkpoint pointer per shard.
	dir := t.TempDir()
	r := seededRepo(t)
	if err := r.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Format     string `json:"format"`
		Generation uint64 `json:"generation"`
		Shards     map[string]struct {
			Checkpoint uint64 `json:"checkpoint"`
			Records    uint64 `json:"records"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	if man.Format == "" || man.Generation == 0 || len(man.Shards) == 0 {
		t.Fatalf("manifest not in log format:\n%s", data)
	}
	for sid, info := range man.Shards {
		if info.Checkpoint == 0 || info.Records == 0 {
			t.Fatalf("shard %s has no checkpoint pointer:\n%s", sid, data)
		}
	}
	if !strings.Contains(string(data), `"users"`) {
		t.Fatalf("manifest missing users:\n%s", data)
	}
}
