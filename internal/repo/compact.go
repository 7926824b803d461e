package repo

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"provpriv/internal/storage"
)

// Background compaction: Save only ever appends deltas, so a busy
// shard's log grows without bound until someone folds it back into a
// checkpoint. That someone is CompactShard, designed to run inside the
// async task runtime, off the request path.
//
// The fold is optimistic: the shard's state is snapshotted and encoded
// into checkpoint records without holding the save lock, then the
// backend write + manifest commit run under saveMu only if nothing
// moved in between. A shard that mutated (or was saved, removed, or
// replaced) since the snapshot makes the fold lose its race and return
// ErrCompactConflict — a retryable outcome, not a failure: the task
// runtime backs off and tries again against the fresher state.

// ErrCompactConflict reports a compaction fold that lost a race with a
// newer mutation or save of the same shard. Retry with backoff.
var ErrCompactConflict = errors.New("repo: compaction lost race with newer save")

// ErrNoStorage reports an operation that needs a bound storage backend
// on a repository that has none (no Load/BindStorage/Save yet).
var ErrNoStorage = errors.New("repo: no bound storage")

// NeedsCompaction returns the ids of shards whose committed log has
// outgrown compactThreshold, sorted — the work list a background
// compaction pass walks. A repository without bound storage has
// nothing to compact.
func (r *Repository) NeedsCompaction() []string {
	r.saveMu.Lock()
	defer r.saveMu.Unlock()
	if r.bound == nil {
		return nil
	}
	var out []string
	for sid, ss := range r.bound.shards {
		if ss.logRecs > compactThreshold {
			out = append(out, sid)
		}
	}
	sort.Strings(out)
	return out
}

// CompactShard folds one shard's checkpoint+log into a fresh checkpoint
// at a new generation and commits a manifest pointing at it with an
// empty log, leaving the shard's durable state identical but O(1) to
// replay. The expensive encoding happens outside the save lock;
// ErrCompactConflict means the shard changed underneath the fold and
// the caller should retry. Compacting a shard that no longer exists or
// is already compact is a no-op.
func (r *Repository) CompactShard(sid string) error {
	sh := r.shard(sid)
	if sh == nil {
		return nil // spec removed; nothing to fold
	}
	return r.compactFrom(sid, snapshotShardState(sh))
}

// compactFrom is CompactShard after the snapshot — split out so tests
// can wedge a mutation between snapshot and commit to pin the conflict
// path.
func (r *Repository) compactFrom(sid string, snap shardSnap) error {
	recs, err := checkpointRecords(sid, snap)
	if err != nil {
		return err
	}
	users, err := json.Marshal(r.Users())
	if err != nil {
		return fmt.Errorf("repo: compact users: %w", err)
	}
	r.saveMu.Lock()
	defer r.saveMu.Unlock()
	bs := r.bound
	if bs == nil {
		return ErrNoStorage
	}
	prev := bs.shards[sid]
	if prev == nil || prev.spec != snap.spec || prev.seq != snap.seq {
		// Saved state moved (newer save, unsaved mutations, or a
		// remove/re-add) since the snapshot: the encoded records no longer
		// describe what the store must hold.
		return ErrCompactConflict
	}
	if prev.logRecs == 0 {
		return nil // already compact
	}
	gen := bs.gen + 1
	if err := bs.b.WriteCheckpoint(sid, gen, recs); err != nil {
		return r.dropBindingLocked(err)
	}
	meta := storage.Meta{Generation: gen, Shards: make(map[string]storage.ShardInfo, len(bs.shards)), Users: users}
	for id, ss := range bs.shards {
		meta.Shards[id] = ss.info()
	}
	folded := snap.saved(gen, uint64(len(recs)))
	meta.Shards[sid] = folded.info()
	if err := bs.b.Commit(meta); err != nil {
		return r.dropBindingLocked(err)
	}
	bs.gen = gen
	bs.shards[sid] = folded
	return nil
}

// dropBindingLocked mirrors Save's error handling under saveMu: a
// backend error mid-write leaves the bookkeeping untrustworthy, so the
// binding is dropped and the next Save rebinds and rewrites in full.
func (r *Repository) dropBindingLocked(err error) error {
	if r.bound != nil {
		r.bound.b.Close()
		r.bound = nil
	}
	return err
}
