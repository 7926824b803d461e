package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Flat is the sharded flat-file backend: one immutable checkpoint file
// and one append-only log file per shard, named by generation, plus
// manifest.json. The manifest rename is the commit point; checkpoint
// files for a new generation get new names, so a crash — or a
// concurrent Load — between a checkpoint write and the manifest commit
// can only ever observe the old, fully consistent generation. This is
// the fix for the torn-snapshot bug of the pre-log Save, which renamed
// new shard content over stable names before the manifest.
type Flat struct {
	dir string

	mu sync.Mutex
	// prev is the most recently read or committed manifest; Commit
	// spares its files during pruning so a concurrent reader that
	// loaded it can still finish.
	prev Meta
	// havePrev guards against pruning on a Flat that never observed a
	// committed manifest (prev would falsely protect nothing).
	havePrev bool
}

// FormatLog identifies the log-engine manifest layout.
const FormatLog = "provpriv-log/1"

const manifestName = "manifest.json"

// kvFileName is the data file of the deleted KV backend; see ErrKVLayout.
const kvFileName = "store.kv"

// tempMaxAge guards the stale-temp sweep: a crashed writer's temp file
// is unlinked only once it is old enough that no live writer can still
// own it.
const tempMaxAge = time.Hour

// OpenFlat opens (creating if missing) a flat-file store directory.
func OpenFlat(dir string) (*Flat, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: open flat %s: %w", dir, err)
	}
	return &Flat{dir: dir}, nil
}

// flatManifest is the on-disk manifest shape. The format key
// distinguishes it from the legacy layout's manifest, whose top-level
// keys were plain file-name lists.
type flatManifest struct {
	Format     string               `json:"format"`
	Generation uint64               `json:"generation"`
	Shards     map[string]ShardInfo `json:"shards,omitempty"`
	Users      json.RawMessage      `json:"users,omitempty"`
}

func ckptName(shard string, gen uint64) string {
	return fmt.Sprintf("ckpt-%s-%016x.log", FileBase(shard), gen)
}

func walName(shard string, gen uint64) string {
	return fmt.Sprintf("wal-%s-%016x.log", FileBase(shard), gen)
}

// Meta implements Backend.
func (f *Flat) Meta() (Meta, error) {
	data, err := os.ReadFile(filepath.Join(f.dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		if _, err := os.Stat(filepath.Join(f.dir, kvFileName)); err == nil {
			return Meta{}, ErrKVLayout
		}
		return Meta{}, nil
	}
	if err != nil {
		return Meta{}, fmt.Errorf("storage: read manifest: %w", err)
	}
	var m flatManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Meta{}, fmt.Errorf("storage: parse manifest: %w", err)
	}
	if m.Format == "" {
		return Meta{}, ErrLegacyLayout
	}
	if m.Format != FormatLog {
		return Meta{}, fmt.Errorf("storage: unsupported layout %q", m.Format)
	}
	meta := Meta{Generation: m.Generation, Shards: m.Shards, Users: m.Users}
	f.mu.Lock()
	// Never step prev backwards: a reader descheduled between reading the
	// manifest and this line must not replace a newer committed manifest,
	// or the next Commit would prune the generation right behind the tip.
	if !f.havePrev || meta.Generation >= f.prev.Generation {
		f.prev, f.havePrev = meta, true
	}
	f.mu.Unlock()
	return meta, nil
}

// WriteCheckpoint implements Backend: temp file, fsync, rename — under
// a generation-fresh name, so no live checkpoint is ever overwritten.
func (f *Flat) WriteCheckpoint(shard string, gen uint64, recs []Record) error {
	return writeFileAtomic(filepath.Join(f.dir, ckptName(shard, gen)), encodeFrames(recs))
}

// ReadCheckpoint implements Backend. Checkpoints were fsynced before
// the manifest referencing them committed, so any framing damage or
// record shortfall here is corruption, not a tolerable torn tail.
func (f *Flat) ReadCheckpoint(shard string, gen uint64, want uint64, fn func(Record) error) error {
	name := ckptName(shard, gen)
	data, err := os.ReadFile(filepath.Join(f.dir, name))
	if err != nil {
		return fmt.Errorf("storage: read checkpoint %s: %w", name, err)
	}
	var n uint64
	if err := replayFrames(data, len(data), func(rec Record) error {
		n++
		return fn(rec)
	}); err != nil {
		return fmt.Errorf("storage: checkpoint %s: %w", name, err)
	}
	if n != want {
		return fmt.Errorf("%w: checkpoint %s holds %d records, manifest says %d", ErrCorrupt, name, n, want)
	}
	return nil
}

// Append implements Backend. The committed extent `at` is
// authoritative: a shorter file means the filesystem lost committed
// data (error), a longer file carries a crashed save's orphan tail,
// which is truncated away before the new records land in its place.
// A log file this call created gets its directory entry fsynced too:
// a self-committing log (ReplayTail) has no Commit coming to do it.
func (f *Flat) Append(shard string, gen, at uint64, recs []Record) (uint64, error) {
	name := walName(shard, gen)
	path := filepath.Join(f.dir, name)
	fd, err := os.OpenFile(path, os.O_RDWR, 0)
	created := errors.Is(err, os.ErrNotExist)
	if created {
		fd, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	}
	if err != nil {
		return 0, fmt.Errorf("storage: append %s: %w", name, err)
	}
	defer fd.Close()
	st, err := fd.Stat()
	if err != nil {
		return 0, fmt.Errorf("storage: append %s: %w", name, err)
	}
	if uint64(st.Size()) < at {
		return 0, fmt.Errorf("%w: log %s is %d bytes, committed extent %d", ErrCorrupt, name, st.Size(), at)
	}
	if uint64(st.Size()) > at {
		if err := fd.Truncate(int64(at)); err != nil {
			return 0, fmt.Errorf("storage: truncate orphan tail of %s: %w", name, err)
		}
	}
	buf := encodeFrames(recs)
	if _, err := fd.WriteAt(buf, int64(at)); err != nil {
		return 0, fmt.Errorf("storage: append %s: %w", name, err)
	}
	if err := fd.Sync(); err != nil {
		return 0, fmt.Errorf("storage: sync %s: %w", name, err)
	}
	if created {
		if err := syncDir(f.dir); err != nil {
			return 0, err
		}
	}
	return at + uint64(len(buf)), nil
}

// ReplayLog implements Backend.
func (f *Flat) ReplayLog(shard string, gen, upTo uint64, fn func(Record) error) error {
	if upTo == 0 {
		return nil
	}
	name := walName(shard, gen)
	data, err := os.ReadFile(filepath.Join(f.dir, name))
	if err != nil {
		return fmt.Errorf("storage: read log %s: %w", name, err)
	}
	if uint64(len(data)) < upTo {
		return fmt.Errorf("%w: log %s is %d bytes, committed extent %d", ErrCorrupt, name, len(data), upTo)
	}
	if err := replayFrames(data, int(upTo), fn); err != nil {
		return fmt.Errorf("storage: log %s: %w", name, err)
	}
	return nil
}

// ReplayTail implements Backend. A log that was never created has an
// empty tail.
func (f *Flat) ReplayTail(shard string, gen, from uint64, fn func(Record) error) (uint64, error) {
	name := walName(shard, gen)
	data, err := os.ReadFile(filepath.Join(f.dir, name))
	if errors.Is(err, os.ErrNotExist) && from == 0 {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("storage: read log %s: %w", name, err)
	}
	if uint64(len(data)) < from {
		return 0, fmt.Errorf("%w: log %s is %d bytes, committed extent %d", ErrCorrupt, name, len(data), from)
	}
	n, err := validFrames(data[from:], fn)
	return from + uint64(n), err
}

// Commit implements Backend: fsync the directory (making the preceding
// checkpoint renames and log creations durable), atomically rename the
// new manifest into place, fsync again, then prune garbage. Crash
// anywhere before the manifest rename leaves the old manifest and a set
// of invisible new-generation orphans; crash after it leaves the new
// generation fully committed with the old one's files pending prune.
func (f *Flat) Commit(meta Meta) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := syncDir(f.dir); err != nil {
		return err
	}
	data, err := json.Marshal(flatManifest{
		Format: FormatLog, Generation: meta.Generation,
		Shards: meta.Shards, Users: meta.Users,
	})
	if err != nil {
		return fmt.Errorf("storage: encode manifest: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(f.dir, manifestName), data); err != nil {
		return err
	}
	if err := syncDir(f.dir); err != nil {
		return err
	}
	prev := f.prev
	if !f.havePrev {
		prev = meta // nothing older to protect
	}
	f.prune(meta, prev)
	f.prev, f.havePrev = meta, true
	return nil
}

// prune removes files unreachable from both the just-committed and the
// previously committed manifest: superseded generations and stale temp
// files from crashed writers (age-guarded, so a concurrent writer's
// live temp is never unlinked). Removal failures are ignored: orphans
// are invisible to readers, and the next commit retries.
func (f *Flat) prune(cur, prev Meta) {
	referenced := map[string]bool{manifestName: true}
	for _, m := range []Meta{cur, prev} {
		for sid, info := range m.Shards {
			referenced[ckptName(sid, info.Checkpoint)] = true
			referenced[walName(sid, info.Checkpoint)] = true
		}
	}
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-tempMaxAge)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || referenced[name] {
			continue
		}
		switch {
		case strings.HasPrefix(name, "ckpt-") || strings.HasPrefix(name, "wal-"):
			os.Remove(filepath.Join(f.dir, name))
		case strings.HasPrefix(name, ".") && strings.Contains(name, ".tmp-"):
			if info, err := e.Info(); err == nil && info.ModTime().Before(cutoff) {
				os.Remove(filepath.Join(f.dir, name))
			}
		}
	}
}

// DropShard implements Backend: removes the shard's checkpoint and log
// files across all generations.
func (f *Flat) DropShard(shard string) error {
	base := FileBase(shard)
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return fmt.Errorf("storage: drop %s: %w", shard, err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "ckpt-"+base+"-") || strings.HasPrefix(name, "wal-"+base+"-") {
			os.Remove(filepath.Join(f.dir, name))
		}
	}
	return nil
}

// Close implements Backend (the flat backend keeps no open handles).
func (f *Flat) Close() error { return nil }

// writeFileAtomic writes data via a temp file in the target directory,
// fsyncs it, and renames it into place — readers and crash recovery
// never observe a partially written file.
func writeFileAtomic(path string, data []byte) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, "."+base+".tmp-*")
	if err != nil {
		return fmt.Errorf("storage: write %s: %w", base, err)
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Chmod(tmp.Name(), 0o644)
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("storage: write %s: %w", base, werr)
	}
	return nil
}

// syncDir fsyncs a directory so preceding renames in it survive a
// crash. Platforms that reject fsync on directories are tolerated.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: sync %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) &&
		!errors.Is(err, syscall.ENOTSUP) && !errors.Is(err, os.ErrPermission) {
		return fmt.Errorf("storage: sync %s: %w", dir, err)
	}
	return nil
}
