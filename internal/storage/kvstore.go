package storage

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// KVBackend maps the Backend contract onto the embedded KV store: a
// structurally different organization from the flat backend (one
// log-structured data file holding every shard, instead of files per
// shard). Keys:
//
//	m                                  committed manifest (JSON)
//	c/<base>/<gen %016x>/<seq %016x>   checkpoint record payloads
//	l/<base>/<gen %016x>/<seq %016x>   log record payloads
//
// <base> is FileBase(shard id); fixed-width hex keeps the KV's sorted
// iteration in write order. The manifest put is a single CRC-framed KV
// entry — atomic at the entry level — so Commit retains the
// swapped-last property: a torn manifest write is truncated on the
// next open, leaving the previous manifest value live. LogLen counts
// records (not bytes): orphan log entries past the committed count are
// ignored on replay and overwritten (same key) by the next Append.
type KVBackend struct {
	kv *KV

	mu sync.Mutex
	// prev mirrors Flat.prev: the last read-or-committed manifest,
	// whose keys pruning spares for concurrent readers.
	prev     Meta
	havePrev bool
}

// KVFileName is the data file of a KV-backed repository directory;
// repo.Load sniffs it to pick the backend.
const KVFileName = "store.kv"

const kvMetaKey = "m"

// OpenKV opens (creating if missing) a KV-backed store in dir.
func OpenKV(dir string) (*KVBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: open kv store %s: %w", dir, err)
	}
	kv, err := OpenKVFile(filepath.Join(dir, KVFileName))
	if err != nil {
		return nil, err
	}
	return &KVBackend{kv: kv}, nil
}

func kvRecKey(kind, shard string, gen, seq uint64) string {
	return fmt.Sprintf("%s/%s/%016x/%016x", kind, FileBase(shard), gen, seq)
}

func kvGenPrefix(kind, shard string, gen uint64) string {
	return fmt.Sprintf("%s/%s/%016x/", kind, FileBase(shard), gen)
}

// Meta implements Backend.
func (b *KVBackend) Meta() (Meta, error) {
	data, ok, err := b.kv.Get(kvMetaKey)
	if err != nil {
		return Meta{}, err
	}
	if !ok {
		return Meta{}, nil
	}
	var m Meta
	if err := json.Unmarshal(data, &m); err != nil {
		return Meta{}, fmt.Errorf("storage: parse kv manifest: %w", err)
	}
	b.mu.Lock()
	if !b.havePrev || m.Generation >= b.prev.Generation { // as Flat.Meta: never backwards
		b.prev, b.havePrev = m, true
	}
	b.mu.Unlock()
	return m, nil
}

// WriteCheckpoint implements Backend. Any leftovers from a crashed
// write at the same generation are deleted in the same batch, so the
// checkpoint's key range holds exactly recs afterwards.
func (b *KVBackend) WriteCheckpoint(shard string, gen uint64, recs []Record) error {
	prefix := kvGenPrefix("c", shard, gen)
	ops := make([]KVOp, 0, len(recs))
	for _, k := range b.kv.Keys(prefix) {
		ops = append(ops, KVOp{Del: true, Key: k})
	}
	for i, rec := range recs {
		ops = append(ops, KVOp{Key: kvRecKey("c", shard, gen, uint64(i)), Val: encodePayload(rec)})
	}
	return b.kv.Apply(ops)
}

// ReadCheckpoint implements Backend.
func (b *KVBackend) ReadCheckpoint(shard string, gen uint64, want uint64, fn func(Record) error) error {
	var n uint64
	err := b.kv.Iter(kvGenPrefix("c", shard, gen), func(_ string, val []byte) error {
		rec, err := decodePayload(val)
		if err != nil {
			return err
		}
		n++
		return fn(rec)
	})
	if err != nil {
		return err
	}
	if n != want {
		return fmt.Errorf("%w: kv checkpoint %s/%d holds %d records, manifest says %d",
			ErrCorrupt, shard, gen, n, want)
	}
	return nil
}

// Append implements Backend. at is a record index; orphan entries from
// a crashed save share keys with the new records and are overwritten
// (KV last-write-wins), which is exactly the flat backend's
// truncate-then-append semantics.
func (b *KVBackend) Append(shard string, gen, at uint64, recs []Record) (uint64, error) {
	ops := make([]KVOp, len(recs))
	for i, rec := range recs {
		ops[i] = KVOp{Key: kvRecKey("l", shard, gen, at+uint64(i)), Val: encodePayload(rec)}
	}
	if err := b.kv.Apply(ops); err != nil {
		return 0, err
	}
	return at + uint64(len(recs)), nil
}

// ReplayLog implements Backend.
func (b *KVBackend) ReplayLog(shard string, gen, upTo uint64, fn func(Record) error) error {
	if upTo == 0 {
		return nil
	}
	var n uint64
	prefix := kvGenPrefix("l", shard, gen)
	err := b.kv.Iter(prefix, func(key string, val []byte) error {
		seq, perr := strconv.ParseUint(strings.TrimPrefix(key, prefix), 16, 64)
		if perr != nil {
			return fmt.Errorf("%w: kv log key %q", ErrCorrupt, key)
		}
		if seq >= upTo {
			return nil // uncommitted orphan tail
		}
		rec, perr := decodePayload(val)
		if perr != nil {
			return perr
		}
		n++
		return fn(rec)
	})
	if err != nil {
		return err
	}
	if n != upTo {
		return fmt.Errorf("%w: kv log %s/%d holds %d committed records, manifest says %d",
			ErrCorrupt, shard, gen, n, upTo)
	}
	return nil
}

// ReplayTail implements Backend: the log keys from, from+1, … as far as
// they run without a gap. The KV excluded its own torn tail when it was
// opened, so what is indexed is whole.
func (b *KVBackend) ReplayTail(shard string, gen, from uint64, fn func(Record) error) (uint64, error) {
	end := from
	for {
		val, ok, err := b.kv.Get(kvRecKey("l", shard, gen, end))
		if err != nil {
			return end, err
		}
		if !ok {
			return end, nil
		}
		rec, err := decodePayload(val)
		if err != nil {
			return end, nil
		}
		if err := fn(rec); err != nil {
			return end, err
		}
		end++
	}
}

// Commit implements Backend: one atomic manifest put, then pruning of
// generations unreachable from both the new and the previous manifest.
func (b *KVBackend) Commit(meta Meta) error {
	data, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("storage: encode kv manifest: %w", err)
	}
	// Take prev before the manifest is published: a reader whose Meta
	// lands right after the put would otherwise make prev == meta and the
	// prune below would drop the generation readers may still hold.
	b.mu.Lock()
	prev := b.prev
	if !b.havePrev {
		prev = meta
	}
	b.mu.Unlock()
	if err := b.kv.Apply([]KVOp{{Key: kvMetaKey, Val: data}}); err != nil {
		return err
	}
	b.prune(meta, prev)
	b.mu.Lock()
	b.prev, b.havePrev = meta, true
	b.mu.Unlock()
	return nil
}

// prune deletes record keys whose (shard, generation) is referenced by
// neither the current nor the previous manifest.
func (b *KVBackend) prune(cur, prev Meta) {
	keep := make(map[string]bool)
	for _, m := range []Meta{cur, prev} {
		for sid, info := range m.Shards {
			keep[kvGenPrefix("c", sid, info.Checkpoint)] = true
			keep[kvGenPrefix("l", sid, info.Checkpoint)] = true
		}
	}
	var ops []KVOp
	for _, key := range b.kv.Keys("") {
		if key == kvMetaKey {
			continue
		}
		// key = kind/base/gen/seq → prefix is everything before the seq.
		i := strings.LastIndexByte(key, '/')
		if i < 0 || !keep[key[:i+1]] {
			ops = append(ops, KVOp{Del: true, Key: key})
		}
	}
	// Prune failures only delay garbage collection; ignore them.
	if len(ops) > 0 {
		_ = b.kv.Apply(ops)
	}
}

// DropShard implements Backend.
func (b *KVBackend) DropShard(shard string) error {
	base := FileBase(shard)
	var ops []KVOp
	for _, kind := range []string{"c", "l"} {
		for _, key := range b.kv.Keys(kind + "/" + base + "/") {
			ops = append(ops, KVOp{Del: true, Key: key})
		}
	}
	return b.kv.Apply(ops)
}

// Close implements Backend.
func (b *KVBackend) Close() error { return b.kv.Close() }
