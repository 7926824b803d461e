package repo

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"

	"provpriv/internal/datapriv"
	"provpriv/internal/exec"
	"provpriv/internal/index"
	"provpriv/internal/obs"
	"provpriv/internal/privacy"
	"provpriv/internal/storage"
	"provpriv/internal/workflow"
)

// Persistence rides on internal/storage: each spec shard is one
// immutable, generation-numbered checkpoint plus an append-only log of
// typed records, and the manifest — committed atomically *last* — pins
// every shard to exactly one generation and one committed log extent.
// A crash (or a concurrent Load) mid-save can therefore only observe
// the previous fully consistent snapshot, never a mix of generations.
//
// Incrementality: shards carry a mutation sequence number; saving twice
// through the same bound store skips clean shards entirely and appends
// only the delta (new executions, replaced policy/ladders) for dirty
// ones. The save that outgrows the threshold folds: when a delta would
// push a shard's log past compactThreshold records, that save writes the
// shard's full checkpoint at its own generation instead, with an empty
// log, so replay stays bounded and Save is the store's only writer.

// compactThreshold is the log length (in records) a save may leave
// behind; the save whose delta would exceed it writes a checkpoint
// instead. Package variable so tests can force folds cheaply.
var compactThreshold uint64 = 256

// boundStore is the repository's attachment to one storage backend:
// the committed generation and, per shard, what the last save wrote —
// the bookkeeping that makes saves incremental. Guarded by saveMu.
type boundStore struct {
	b      storage.Backend
	key    string
	gen    uint64
	shards map[string]*shardSaved
}

// shardSaved records what the bound store holds for one shard.
type shardSaved struct {
	seq    uint64 // shard mutation seq the saved state reflects
	polSeq uint64 // install seq of the (policy, ladders) pair it holds
	// spec identifies the shard instance the saved state belongs to: a
	// spec removed and re-added under the same id is a new shard (with a
	// fresh spec object), and deltas against the old one would be bogus.
	spec        *workflow.Spec
	ckptGen     uint64 // generation of the shard's checkpoint
	ckptRecords uint64
	logLen      uint64 // committed log extent in bytes
	logRecs     uint64 // committed log length in records
	execs       map[string]bool
}

// Save writes the repository's contents to dir (created if missing),
// binding to a storage.Flat on it on first use; a repository already
// bound to dir (LoadStorage, BindStorage) saves through that backend.
// Indexes and caches are not persisted; Load rebuilds them.
func (r *Repository) Save(dir string) error {
	return r.SaveCtx(context.Background(), dir)
}

// SaveCtx is Save threaded with a context for tracing: a sampled save
// request's trace shows the storage.save span with its per-backend-op
// children (storage.append / storage.checkpoint / storage.commit). The
// save itself is not cancelable — a half-written generation is exactly
// the torn state the storage engine exists to avoid.
func (r *Repository) SaveCtx(ctx context.Context, dir string) error {
	r.saveMu.Lock()
	defer r.saveMu.Unlock()
	ctx, span := obs.StartSpan(ctx, "storage.save")
	defer span.End()
	if r.bound == nil || r.bound.key != dir {
		b, err := storage.OpenFlat(dir)
		if err != nil {
			return fmt.Errorf("repo: save: %w", err)
		}
		bound, err := newBoundStore(b, dir)
		if err != nil {
			b.Close()
			return fmt.Errorf("repo: save: %w", err)
		}
		if r.bound != nil {
			r.bound.b.Close()
		}
		r.bound = bound
	}
	if err := r.saveBound(ctx, r.bound); err != nil {
		// A half-applied save leaves the bookkeeping untrustworthy:
		// drop the binding so the next Save rebinds and rewrites in full.
		r.bound.b.Close()
		r.bound = nil
		return err
	}
	return nil
}

// BindStorage attaches the repository to an already opened backend so
// subsequent Save(key) calls route through it — how a repository built
// in memory saves through a wrapped backend (Measure, Fault). Any
// previous binding is closed. The repository takes ownership of b.
func (r *Repository) BindStorage(b storage.Backend, key string) error {
	bound, err := newBoundStore(b, key)
	if err != nil {
		return fmt.Errorf("repo: bind storage: %w", err)
	}
	r.saveMu.Lock()
	defer r.saveMu.Unlock()
	if r.bound != nil {
		r.bound.b.Close()
	}
	r.bound = bound
	return nil
}

// StorageBound reports whether the repository currently has a storage
// backend attached — the readiness signal /readyz checks.
func (r *Repository) StorageBound() bool {
	r.saveMu.Lock()
	defer r.saveMu.Unlock()
	return r.bound != nil
}

// CloseStorage releases the bound backend, if any.
func (r *Repository) CloseStorage() error {
	r.saveMu.Lock()
	defer r.saveMu.Unlock()
	if r.bound == nil {
		return nil
	}
	err := r.bound.b.Close()
	r.bound = nil
	return err
}

// newBoundStore binds a backend, reading its committed generation.
func newBoundStore(b storage.Backend, key string) (*boundStore, error) {
	meta, err := b.Meta()
	if err != nil {
		return nil, err
	}
	return &boundStore{b: b, key: key, gen: meta.Generation, shards: make(map[string]*shardSaved)}, nil
}

// shardSnap is one shard's state captured under its read lock.
type shardSnap struct {
	seq    uint64
	polSeq uint64
	spec   *workflow.Spec
	pol    *privacy.Policy
	hs     map[string]*datapriv.Hierarchy
	execs  []*exec.Stored // sorted by id
}

// snapshotShardState captures sh under its read lock; nothing, and false,
// when prev (its saved state, if any) is still at sh's seq.
func snapshotShardState(sh *shard, prev *shardSaved) (shardSnap, bool) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if prev != nil && prev.seq == sh.seq {
		return shardSnap{}, false
	}
	return shardSnap{
		seq: sh.seq, polSeq: sh.gen.seq,
		spec: sh.spec, pol: sh.gen.pol, hs: sh.gen.ladders,
		execs: sh.executions(),
	}, true
}

// saveBound runs one save through the bound store. Each shard is locked
// only while its state is snapshotted, so a long save does not freeze
// the repository; the commit at the end is the single durability point.
func (r *Repository) saveBound(ctx context.Context, bs *boundStore) error {
	gen := bs.gen + 1
	meta := storage.Meta{Generation: gen, Shards: make(map[string]storage.ShardInfo)}
	next := make(map[string]*shardSaved)
	for _, sid := range r.SpecIDs() {
		sh := r.shard(sid)
		if sh == nil {
			continue // removed while saving
		}
		prev := bs.shards[sid]
		snap, dirty := snapshotShardState(sh, prev)
		if !dirty {
			// Clean shard: re-point the new manifest at its existing state.
			meta.Shards[sid] = prev.info()
			next[sid] = prev
			continue
		}
		ss, err := bs.writeShard(ctx, sid, gen, snap, prev)
		if err != nil {
			return err
		}
		meta.Shards[sid] = ss.info()
		next[sid] = ss
	}
	users, err := json.Marshal(r.Users())
	if err != nil {
		return fmt.Errorf("repo: save users: %w", err)
	}
	meta.Users = users
	_, commit := obs.StartSpan(ctx, "storage.commit")
	err = bs.b.Commit(meta)
	commit.End()
	if err != nil {
		return err
	}
	bs.gen = gen
	// Only now, with the commit durable, drop removed specs' data.
	for sid := range bs.shards {
		if next[sid] == nil {
			if err := bs.b.DropShard(sid); err != nil {
				bs.shards = next
				return err
			}
		}
	}
	bs.shards = next
	return nil
}

func (ss *shardSaved) info() storage.ShardInfo {
	return storage.ShardInfo{Checkpoint: ss.ckptGen, Records: ss.ckptRecords, LogLen: ss.logLen}
}

// writeShard persists one dirty shard: an append of the delta records
// to its existing log for a known shard, a full checkpoint when the
// shard is new (or replaced under the same id) or when the delta would
// push its log past compactThreshold.
func (bs *boundStore) writeShard(ctx context.Context, sid string, gen uint64, snap shardSnap, prev *shardSaved) (*shardSaved, error) {
	if prev != nil && prev.spec == snap.spec {
		recs, err := deltaRecords(sid, snap, prev)
		if err != nil {
			return nil, err
		}
		if logRecs := prev.logRecs + uint64(len(recs)); logRecs <= compactThreshold {
			logLen := prev.logLen
			if len(recs) > 0 {
				_, span := obs.StartSpan(ctx, "storage.append")
				logLen, err = bs.b.Append(sid, prev.ckptGen, prev.logLen, recs)
				span.End()
				if err != nil {
					return nil, err
				}
			}
			ss := snap.saved(prev.ckptGen, prev.ckptRecords)
			ss.logLen, ss.logRecs = logLen, logRecs
			return ss, nil
		}
	}
	recs, err := checkpointRecords(sid, snap)
	if err != nil {
		return nil, err
	}
	_, span := obs.StartSpan(ctx, "storage.checkpoint")
	err = bs.b.WriteCheckpoint(sid, gen, recs)
	span.End()
	if err != nil {
		return nil, err
	}
	return snap.saved(gen, uint64(len(recs))), nil
}

// saved is the bookkeeping of a store that holds snap behind a checkpoint of
// ckptRecords records at generation ckptGen, its log empty.
func (snap shardSnap) saved(ckptGen, ckptRecords uint64) *shardSaved {
	ss := &shardSaved{
		seq: snap.seq, polSeq: snap.polSeq, spec: snap.spec,
		ckptGen: ckptGen, ckptRecords: ckptRecords,
		execs: make(map[string]bool, len(snap.execs)),
	}
	for _, e := range snap.execs {
		ss.execs[e.ID] = true
	}
	return ss
}

// checkpointRecords folds a shard snapshot into its full record
// sequence: spec, policy, ladders (when present), then executions.
func checkpointRecords(sid string, snap shardSnap) ([]storage.Record, error) {
	recs := make([]storage.Record, 0, 3+len(snap.execs))
	data, err := json.Marshal(snap.spec)
	if err != nil {
		return nil, fmt.Errorf("repo: encode spec %s: %w", sid, err)
	}
	recs = append(recs, storage.Record{Type: storage.RecSpec, Key: sid, Data: data})
	pr, err := policyRecords(sid, snap.pol, snap.hs, len(snap.hs) > 0)
	if err != nil {
		return nil, err
	}
	return execRecords(append(recs, pr...), snap, nil)
}

// deltaRecords renders what changed since the previous save: replaced
// policy/ladders (replayed last-wins) and executions the store has not
// seen. Specs are immutable once registered, so no spec record.
func deltaRecords(sid string, snap shardSnap, prev *shardSaved) ([]storage.Record, error) {
	var recs []storage.Record
	if prev.polSeq != snap.polSeq {
		// Always pair the ladder record with the policy record here: a
		// SetGeneralization back to nil must clear the stored ladders.
		pr, err := policyRecords(sid, snap.pol, snap.hs, true)
		if err != nil {
			return nil, err
		}
		recs = pr
	}
	return execRecords(recs, snap, prev.execs)
}

func policyRecords(sid string, pol *privacy.Policy, hs map[string]*datapriv.Hierarchy, withHier bool) ([]storage.Record, error) {
	data, err := json.Marshal(pol)
	if err != nil {
		return nil, fmt.Errorf("repo: encode policy %s: %w", sid, err)
	}
	recs := []storage.Record{{Type: storage.RecPolicy, Key: sid, Data: data}}
	if withHier {
		hdata, err := json.Marshal(hs)
		if err != nil {
			return nil, fmt.Errorf("repo: encode hierarchies %s: %w", sid, err)
		}
		recs = append(recs, storage.Record{Type: storage.RecHier, Key: sid, Data: hdata})
	}
	return recs, nil
}

// execRecords appends a record for every execution of snap the store does
// not hold (held: the ids it does; nil for a full fold). The first execution
// of a shape is written in full, RecExec — ahead of its turn when one that
// sorts before it names it, so a reader meets it first — and every other as
// RecValues, the values it carries beside that one. A stored execution of a
// shape implies its first, stored in full: it was interned, and saved, first.
func execRecords(recs []storage.Record, snap shardSnap, held map[string]bool) ([]storage.Record, error) {
	full := make(map[*exec.Execution]bool)
	for _, e := range snap.execs {
		if held[e.ID] {
			continue
		}
		rep := e.Shape().Rep()
		if !held[rep.ID] && !full[rep] {
			full[rep] = true
			data, err := json.Marshal(rep)
			if err != nil {
				return nil, fmt.Errorf("repo: encode execution %s: %w", rep.ID, err)
			}
			recs = append(recs, storage.Record{Type: storage.RecExec, Key: rep.ID, Data: data})
		}
		if e.ID != rep.ID {
			data, err := e.MarshalValues()
			if err != nil {
				return nil, fmt.Errorf("repo: encode execution %s: %w", e.ID, err)
			}
			recs = append(recs, storage.Record{Type: storage.RecValues, Key: e.ID, Data: data})
		}
	}
	return recs, nil
}

// Load reads a saved repository directory into a fresh Repository,
// validating everything and rebuilding the index. OpenFlat would create
// a missing directory and LoadStorage accepts an empty store; Load does
// neither: a dir holding no manifest is an error and nothing is created
// in it. A pre-log or KV-backend directory is refused with
// storage.ErrLegacyLayout / storage.ErrKVLayout.
func Load(dir string) (*Repository, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("repo: load: %w", err)
	}
	b, err := storage.OpenFlat(dir)
	if err != nil {
		return nil, fmt.Errorf("repo: load: %w", err)
	}
	r, err := LoadStorage(b, dir)
	if err == nil && r.bound.gen == 0 {
		err = fmt.Errorf("repo: load: no manifest in %s", dir)
	}
	if err != nil {
		b.Close()
		return nil, err
	}
	return r, nil
}

// loadedShard accumulates one shard's records during replay: what becomes
// the shard (spec, policy, ladders, the execution table and its shapes) and
// held, the ids the store now holds for it. Policy and ladder records are
// last-wins, matching the append-log semantics; an execution is stored once,
// since a later record may name an earlier one. readShard fills one and
// touches nothing else, so shards are read in parallel.
type loadedShard struct {
	spec    *workflow.Spec
	pol     *privacy.Policy
	hs      map[string]*datapriv.Hierarchy
	execs   map[string]*exec.Stored
	shapes  *exec.Shapes
	held    map[string]bool
	logRecs uint64
}

// readShard replays one shard's checkpoint and committed log.
func readShard(b storage.Backend, sid string, info storage.ShardInfo) (*loadedShard, error) {
	l := &loadedShard{execs: make(map[string]*exec.Stored), shapes: exec.NewShapes(), held: make(map[string]bool)}
	if err := b.ReadCheckpoint(sid, info.Checkpoint, info.Records, func(rec storage.Record) error {
		return l.apply(sid, rec)
	}); err != nil {
		return nil, fmt.Errorf("repo: load %s: %w", sid, err)
	}
	if err := b.ReplayLog(sid, info.Checkpoint, info.LogLen, func(rec storage.Record) error {
		l.logRecs++
		return l.apply(sid, rec)
	}); err != nil {
		return nil, fmt.Errorf("repo: load %s: %w", sid, err)
	}
	if l.spec == nil {
		return nil, fmt.Errorf("repo: load: shard %q has no spec record: %w", sid, storage.ErrCorrupt)
	}
	return l, nil
}

func (l *loadedShard) apply(sid string, rec storage.Record) error {
	switch rec.Type {
	case storage.RecSpec:
		s, err := workflow.UnmarshalSpec(rec.Data)
		if err != nil {
			return err
		}
		if s.ID != sid {
			return fmt.Errorf("repo: load: shard %q holds spec %q: %w", sid, s.ID, storage.ErrCorrupt)
		}
		l.spec = s
	case storage.RecPolicy:
		pol := &privacy.Policy{}
		if err := json.Unmarshal(rec.Data, pol); err != nil {
			return fmt.Errorf("repo: load policy of %s: %w", sid, err)
		}
		if pol.SpecID != sid {
			return fmt.Errorf("repo: load: shard %q holds policy for %q: %w", sid, pol.SpecID, storage.ErrCorrupt)
		}
		l.pol = pol
	case storage.RecHier:
		var hs map[string]*datapriv.Hierarchy
		if err := json.Unmarshal(rec.Data, &hs); err != nil {
			return fmt.Errorf("repo: load hierarchies of %s: %w", sid, err)
		}
		l.hs = hs
	case storage.RecExec:
		// Decoded and validated here, once; interning shares the structure of
		// a shape that an older directory stored in full more than once.
		e, err := exec.UnmarshalExecution(rec.Data)
		if err != nil {
			return err
		}
		return l.store(sid, l.shapes.Intern(e))
	case storage.RecValues:
		// No structure is read, so none is validated or compared: the
		// execution is built over the one the record names.
		e, err := l.shapes.UnmarshalValues(rec.Key, rec.Data, l.execs)
		if err != nil {
			return fmt.Errorf("repo: load: shard %q: %v: %w", sid, err, storage.ErrCorrupt)
		}
		return l.store(sid, e)
	default:
		return fmt.Errorf("repo: load: record type %v in shard %s: %w", rec.Type, sid, storage.ErrCorrupt)
	}
	return nil
}

func (l *loadedShard) store(sid string, e *exec.Stored) error {
	if e.SpecID() != sid || l.held[e.ID] {
		return fmt.Errorf("repo: load: shard %q holds execution %q of %q, or holds it twice: %w", sid, e.ID, e.SpecID(), storage.ErrCorrupt)
	}
	l.execs[e.ID], l.held[e.ID] = e, true
	return nil
}

// LoadStorage builds a Repository from an opened backend and binds it,
// so subsequent Save(key) calls are incremental appends to the same
// store. An empty store yields an empty bound repository whose first
// Save commits generation 1 — how a server starts on a fresh directory.
// The repository takes ownership of b on success.
//
// Shards are read on the repository's fan-out pool, each into its own
// loadedShard, then assembled in shard-id order, so sequence numbers, the
// index and the error returned (the first failing shard's) are those of a
// serial load. The repository is private until returned, so nothing is
// locked: a shard is handed the execution table and shapes its records
// built — checked as read, never through AddExecution again — with the
// bookkeeping that lets the first Save back to this store skip it, and the
// index is built once (per-spec AddSpec would copy the index snapshot on
// every call, turning a large load quadratic).
func LoadStorage(b storage.Backend, key string) (*Repository, error) {
	meta, err := b.Meta()
	if err != nil {
		return nil, err
	}
	r := New()
	sids := slices.Sorted(maps.Keys(meta.Shards))
	loaded, errs := make([]*loadedShard, len(sids)), make([]error, len(sids))
	r.fanOut(len(sids), func(i int) {
		loaded[i], errs[i] = readShard(b, sids[i], meta.Shards[sids[i]])
	})
	bound := &boundStore{b: b, key: key, gen: meta.Generation, shards: make(map[string]*shardSaved)}
	specs, pols := make([]*workflow.Spec, 0, len(sids)), make(map[string]*privacy.Policy, len(sids))
	for i, sid := range sids {
		if errs[i] != nil {
			return nil, errs[i]
		}
		l, info := loaded[i], meta.Shards[sid]
		sh, err := r.newShard(l.spec, l.pol, l.hs)
		if err != nil {
			return nil, err
		}
		sh.execs, sh.shapes = l.execs, l.shapes
		r.shards[sid] = sh
		specs = append(specs, l.spec)
		// The shard's own pointer (newShard substitutes an all-public policy
		// for a missing one): searchView trusts an index segment only when
		// it was built from exactly the pair the shard holds.
		pols[sid] = sh.gen.pol
		bound.shards[sid] = &shardSaved{
			seq: sh.seq, polSeq: sh.gen.seq, spec: l.spec, execs: l.held,
			ckptGen: info.Checkpoint, ckptRecords: info.Records, logLen: info.LogLen, logRecs: l.logRecs,
		}
	}
	r.inverted = index.BuildInverted(specs, pols)
	if len(meta.Users) > 0 {
		var users []privacy.User
		if err := json.Unmarshal(meta.Users, &users); err != nil {
			return nil, fmt.Errorf("repo: load users: %w", err)
		}
		for _, u := range users {
			r.AddUser(u)
		}
	}
	r.bound = bound
	return r, nil
}
