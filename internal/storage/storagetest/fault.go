package storagetest

import (
	"errors"
	"fmt"
	"sync"

	"provpriv/internal/storage"
)

// Fault wraps a storage.Backend for crash testing: it counts calls per
// operation and, at a configured kill point, returns ErrKilled either
// before the operation runs (the write never happened) or after it
// completed (the write landed but the caller thinks it failed — the
// harder crash to survive). Once killed, the backend stays dead: every
// further mutating call fails, modeling a process that never got to
// run its cleanup.
type Fault struct {
	b storage.Backend

	mu     sync.Mutex
	calls  map[string]int
	before map[string]int
	after  map[string]int
	dead   bool
}

// ErrKilled is returned at and after a Fault kill point.
var ErrKilled = errors.New("storage: killed by fault injection")

// Operation names for kill points and call counting.
const (
	OpMeta            = "meta"
	OpWriteCheckpoint = "write_checkpoint"
	OpReadCheckpoint  = "read_checkpoint"
	OpAppend          = "append"
	OpReplay          = "replay"
	OpCommit          = "commit"
	OpDrop            = "drop"
)

// NewFault wraps b with no kill points armed.
func NewFault(b storage.Backend) *Fault {
	return &Fault{
		b:      b,
		calls:  make(map[string]int),
		before: make(map[string]int),
		after:  make(map[string]int),
	}
}

// Unwrap returns the wrapped backend (kill points do not apply to
// calls made on it directly — tests use it to inspect state post-kill).
func (f *Fault) Unwrap() storage.Backend { return f.b }

// KillBefore arms a kill immediately before the n-th (1-based) call to
// op: the operation does not run.
func (f *Fault) KillBefore(op string, n int) {
	f.mu.Lock()
	f.before[op] = n
	f.mu.Unlock()
}

// KillAfter arms a kill immediately after the n-th (1-based) call to
// op completes: its effect persists but the error reaches the caller.
func (f *Fault) KillAfter(op string, n int) {
	f.mu.Lock()
	f.after[op] = n
	f.mu.Unlock()
}

// Calls reports how many times op has been invoked.
func (f *Fault) Calls(op string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[op]
}

// Dead reports whether a kill point has fired.
func (f *Fault) Dead() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dead
}

// enter counts the call and decides the kill: a non-nil error means the
// operation must not run. nth is this call's ordinal among the calls to
// op, which exit needs back: calls to one op may overlap, so the shared
// counter may have moved on by the time this one completes.
func (f *Fault) enter(op string) (nth int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead {
		return 0, fmt.Errorf("%w (%s after death)", ErrKilled, op)
	}
	f.calls[op]++
	nth = f.calls[op]
	if n, ok := f.before[op]; ok && nth == n {
		f.dead = true
		return nth, fmt.Errorf("%w (before %s #%d)", ErrKilled, op, n)
	}
	return nth, nil
}

// exit applies an after-kill once the nth call to op completed.
func (f *Fault) exit(op string, nth int, opErr error) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n, ok := f.after[op]; ok && nth == n && !f.dead {
		f.dead = true
		if opErr == nil {
			return fmt.Errorf("%w (after %s #%d)", ErrKilled, op, n)
		}
	}
	return opErr
}

// Meta implements storage.Backend.
func (f *Fault) Meta() (storage.Meta, error) {
	nth, err := f.enter(OpMeta)
	if err != nil {
		return storage.Meta{}, err
	}
	m, err := f.b.Meta()
	return m, f.exit(OpMeta, nth, err)
}

// WriteCheckpoint implements storage.Backend.
func (f *Fault) WriteCheckpoint(shard string, gen uint64, recs []storage.Record) error {
	nth, err := f.enter(OpWriteCheckpoint)
	if err != nil {
		return err
	}
	return f.exit(OpWriteCheckpoint, nth, f.b.WriteCheckpoint(shard, gen, recs))
}

// ReadCheckpoint implements storage.Backend.
func (f *Fault) ReadCheckpoint(shard string, gen uint64, want uint64, fn func(storage.Record) error) error {
	nth, err := f.enter(OpReadCheckpoint)
	if err != nil {
		return err
	}
	return f.exit(OpReadCheckpoint, nth, f.b.ReadCheckpoint(shard, gen, want, fn))
}

// Append implements storage.Backend.
func (f *Fault) Append(shard string, gen, at uint64, recs []storage.Record) (uint64, error) {
	nth, err := f.enter(OpAppend)
	if err != nil {
		return 0, err
	}
	n, err := f.b.Append(shard, gen, at, recs)
	return n, f.exit(OpAppend, nth, err)
}

// ReplayLog implements storage.Backend.
func (f *Fault) ReplayLog(shard string, gen, upTo uint64, fn func(storage.Record) error) error {
	nth, err := f.enter(OpReplay)
	if err != nil {
		return err
	}
	return f.exit(OpReplay, nth, f.b.ReplayLog(shard, gen, upTo, fn))
}

// ReplayTail implements storage.Backend, counted and killed as a replay.
func (f *Fault) ReplayTail(shard string, gen, from uint64, fn func(storage.Record) error) (uint64, error) {
	nth, err := f.enter(OpReplay)
	if err != nil {
		return 0, err
	}
	end, err := f.b.ReplayTail(shard, gen, from, fn)
	return end, f.exit(OpReplay, nth, err)
}

// Commit implements storage.Backend.
func (f *Fault) Commit(meta storage.Meta) error {
	nth, err := f.enter(OpCommit)
	if err != nil {
		return err
	}
	return f.exit(OpCommit, nth, f.b.Commit(meta))
}

// DropShard implements storage.Backend.
func (f *Fault) DropShard(shard string) error {
	nth, err := f.enter(OpDrop)
	if err != nil {
		return err
	}
	return f.exit(OpDrop, nth, f.b.DropShard(shard))
}

// Close implements storage.Backend (never killed — even a dying process's fds
// get closed).
func (f *Fault) Close() error { return f.b.Close() }
