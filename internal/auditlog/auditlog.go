// Package auditlog is the append-only mutation audit log: who changed
// what, when, with what outcome — provenance for the provenance store
// itself. Every mutation request (including denied ones) becomes
// exactly one Record, durably appended through a storage.Backend before
// the append returns, and queryable newest-first from an in-memory
// ring via the admin audit endpoint.
//
// The log deliberately reuses the crash-safe storage contract from
// internal/storage instead of inventing a file format, but not its
// commit: every record is one whole transaction, so its own CRC frame
// is its durability point. An acknowledged mutation costs one fsync —
// the write of its frame, shared with whichever other records arrived
// while the previous fsync ran — and the manifest is written only when
// the log is created and when it is closed. Open reads the committed
// extent strictly, then the frames past it as far as they are clean: a
// torn tail from a crash mid-append ends the log and is overwritten by
// the next append, never misread. The log lives in its own backend
// directory (one shard, "audit") — repository shards hold typed engine
// records and their loader rejects foreign types, so the two must not
// share a directory.
//
// Secrets never enter the log: callers record token *names* and
// principal names only.
package auditlog

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"provpriv/internal/obs"
	"provpriv/internal/storage"
)

// shard is the single shard name the log writes under.
const shard = "audit"

// ringSize bounds the in-memory query window. The durable log is
// unbounded; the ring is what the admin endpoint can page through
// without replaying the backend.
const ringSize = 1024

// Record is one audited mutation attempt.
type Record struct {
	// Seq is the record's position in the log, 1-based and strictly
	// increasing across restarts.
	Seq uint64 `json:"seq"`
	// Time is when the mutation finished, UTC.
	Time time.Time `json:"time"`
	// RequestID is the obs-assigned request id, threading the audit
	// entry to the request trace and the client's error envelope.
	RequestID string `json:"request_id,omitempty"`
	// Principal is who asked: the repository user the request
	// authenticated as (empty when authentication itself failed).
	Principal string `json:"principal,omitempty"`
	// Token is the bearer token's name, when one was presented.
	Token string `json:"token,omitempty"`
	// Role is the authenticated role, empty on auth failure.
	Role string `json:"role,omitempty"`
	// Action is the mutation class, e.g. "spec.add" or "token.remove".
	Action string `json:"action"`
	// Target is the acted-on entity (spec id, execution id, token
	// name), when the handler resolved one.
	Target string `json:"target,omitempty"`
	// Status is the HTTP status the request finished with.
	Status int `json:"status"`
	// Outcome classifies Status: "ok" (2xx), "denied" (401/403),
	// "rejected" (other 4xx), "error" (5xx).
	Outcome string `json:"outcome"`
}

// OutcomeFor classifies an HTTP status for Record.Outcome.
func OutcomeFor(status int) string {
	switch {
	case status >= 200 && status < 300:
		return "ok"
	case status == 401 || status == 403:
		return "denied"
	case status >= 400 && status < 500:
		return "rejected"
	default:
		return "error"
	}
}

// Log is the durable audit log. A record's durability point is its own
// CRC frame: Append returns once the frame is written and fsynced, and
// Open finds it again by reading the log past the manifest's extent
// (storage.ReplayTail). A manifest is committed when the log is created
// and when it is closed — never per record.
//
// Concurrent appenders share the fsync. A record is numbered and encoded
// under mu and joins the open batch; the batch's first member is its
// leader. The leader waits for the batch ahead to finish, seals its own,
// writes every member with one Backend.Append outside the mutex,
// publishes them to the ring in sequence order and closes done, which
// releases the members and is the go-ahead of the batch behind. Batch
// size is whatever arrived during the previous fsync. A failed flush
// fails exactly its members and leaves the extent where it was; their
// sequence numbers are not reused, because a later batch may already
// hold higher ones — Seq is strictly increasing, not gapless.
type Log struct {
	b   storage.Backend
	gen uint64

	// appendSeconds times every Append call, flushes counts the
	// Backend.Append calls that succeeded and records the records they
	// made durable; records ÷ flushes is the mean batch size.
	appendSeconds obs.Histogram
	flushes       atomic.Uint64 //provlint:counter
	records       atomic.Uint64 //provlint:counter

	mu     sync.Mutex
	seq    uint64 // last sequence number handed out
	logLen uint64 // durable extent; written only by the leader whose turn it is
	closed bool
	open   *batch          // the batch still taking members; nil: the next Append starts one
	turn   <-chan struct{} // the newest batch's done: the go-ahead of the one after it

	// ring holds the newest ringN records, oldest at ringHead, wrapping.
	ring     [ringSize]Record
	ringHead int
	ringN    int // records in ring (≤ ringSize)
}

// batch is the set of records one Backend.Append makes durable.
type batch struct {
	recs   []Record
	frames []storage.Record
	ahead  <-chan struct{} // closed once the batch ahead has flushed
	done   chan struct{}   // closed once this one has; err is set before
	err    error
}

// ErrClosed is what Append returns once Close has been called.
var ErrClosed = errors.New("auditlog: log is closed")

// Open attaches to (or initializes) an audit log on b. The committed
// extent is replayed strictly, then the records appended past it
// tolerantly — a torn tail from a crash mid-append ends the log — and
// the sequence counter, the query ring and the extent continue from
// there. The Log takes ownership of b: Close closes it.
func Open(b storage.Backend) (*Log, error) {
	meta, err := b.Meta()
	if err != nil {
		return nil, fmt.Errorf("auditlog: read meta: %w", err)
	}
	idle := make(chan struct{})
	close(idle)
	l := &Log{b: b, turn: idle}
	info, ok := meta.Shards[shard]
	if !ok {
		// Fresh log: commit an empty checkpoint so the shard exists.
		l.gen = meta.Generation + 1
		if err := b.WriteCheckpoint(shard, l.gen, nil); err != nil {
			return nil, fmt.Errorf("auditlog: init checkpoint: %w", err)
		}
		if err := l.commit(); err != nil {
			return nil, fmt.Errorf("auditlog: init commit: %w", err)
		}
		return l, nil
	}
	l.gen = info.Checkpoint
	replay := func(rec storage.Record) error {
		if rec.Type != storage.RecAudit {
			return fmt.Errorf("auditlog: unexpected %v record in audit log", rec.Type)
		}
		var r Record
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return fmt.Errorf("auditlog: decode record %s: %w", rec.Key, err)
		}
		if r.Seq > l.seq {
			l.seq = r.Seq
		}
		l.records.Add(1)
		l.push(r)
		return nil
	}
	if err := b.ReplayLog(shard, l.gen, info.LogLen, replay); err != nil {
		return nil, err
	}
	if l.logLen, err = b.ReplayTail(shard, l.gen, info.LogLen, replay); err != nil {
		return nil, err
	}
	return l, nil
}

// commit publishes the manifest at the current extent. Nothing reads it
// back but the next Open's strict replay (and an older binary, which
// reads no further), so it runs at initialization and at Close only.
func (l *Log) commit() error {
	return l.b.Commit(storage.Meta{
		Generation: l.gen,
		Shards:     map[string]storage.ShardInfo{shard: {Checkpoint: l.gen, LogLen: l.logLen}},
	})
}

// push adds r to the ring, overwriting the oldest record once it is
// full (caller holds mu, or is still single-threaded in Open).
func (l *Log) push(r Record) {
	l.ring[(l.ringHead+l.ringN)%ringSize] = r // when full, the oldest's slot
	if l.ringN < ringSize {
		l.ringN++
	} else {
		l.ringHead = (l.ringHead + 1) % ringSize
	}
}

// Append assigns the record's sequence number, timestamp and outcome
// (when unset) and returns once the record is durable: queryable, and
// found again by Open after a crash.
func (l *Log) Append(r Record) error {
	start := time.Now()
	err := l.append(r)
	l.appendSeconds.Observe(time.Since(start))
	return err
}

func (l *Log) append(r Record) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.seq++
	r.Seq = l.seq
	if r.Time.IsZero() {
		r.Time = time.Now().UTC()
	}
	if r.Outcome == "" {
		r.Outcome = OutcomeFor(r.Status)
	}
	data, err := json.Marshal(r)
	if err != nil {
		l.seq-- // still under the lock that handed it out
		l.mu.Unlock()
		return fmt.Errorf("auditlog: encode: %w", err)
	}
	b := l.open
	leader := b == nil
	if leader {
		b = &batch{ahead: l.turn, done: make(chan struct{})}
		l.open, l.turn = b, b.done
	}
	b.recs = append(b.recs, r)
	b.frames = append(b.frames, storage.Record{
		Type: storage.RecAudit,
		Key:  strconv.FormatUint(r.Seq, 10),
		Data: data,
	})
	l.mu.Unlock()
	if leader {
		l.flush(b)
	}
	<-b.done
	return b.err
}

// flush is the leader's half of Append: one write and one fsync for the
// whole batch, outside the mutex.
func (l *Log) flush(b *batch) {
	<-b.ahead
	l.mu.Lock()
	l.open = nil // sealed: whoever arrives now leads the next batch
	at := l.logLen
	l.mu.Unlock()
	end, err := l.b.Append(shard, l.gen, at, b.frames)
	if err != nil {
		b.err = fmt.Errorf("auditlog: append: %w", err)
	} else {
		l.mu.Lock()
		l.logLen = end
		for _, r := range b.recs {
			l.push(r)
		}
		l.records.Add(uint64(len(b.recs)))
		l.mu.Unlock()
		l.flushes.Add(1)
	}
	close(b.done)
}

// Query filters Recent results.
type Query struct {
	// Principal, when non-empty, keeps only records by that principal.
	Principal string
	// Action, when non-empty, keeps only records with that action.
	Action string
	// Limit caps the returned slice (0 or negative = 100; hard cap is
	// the window size).
	Limit int
}

// Recent returns matching records from the in-memory window, newest
// first, plus the total number of records ever appended (so callers
// can tell the window from the full history).
func (l *Log) Recent(q Query) (recs []Record, total uint64) {
	limit := q.Limit
	if limit <= 0 {
		limit = 100
	}
	if limit > ringSize {
		limit = ringSize
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	recs = make([]Record, 0, min(limit, l.ringN))
	for i := l.ringN - 1; i >= 0 && len(recs) < limit; i-- {
		r := l.ring[(l.ringHead+i)%ringSize]
		if q.Principal != "" && r.Principal != q.Principal {
			continue
		}
		if q.Action != "" && r.Action != q.Action {
			continue
		}
		recs = append(recs, r)
	}
	return recs, l.records.Load()
}

// Total returns how many records the log has ever recorded (including
// ones rotated out of the query window).
func (l *Log) Total() uint64 { return l.records.Load() }

// WritePrometheus renders the log's metric families.
func (l *Log) WritePrometheus(w io.Writer) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("provpriv_audit_records_total", "Mutation audit records durably appended.", l.records.Load())
	counter("provpriv_audit_flushes_total", "Backend appends (one write, one fsync) that made audit records durable; records per flush is the batch size.", l.flushes.Load())
	l.appendSeconds.WritePrometheus(w, "provpriv_audit_append_seconds",
		"Time an Append call took to return, waiting for the shared flush included.")
}

// Close waits for the flushes in flight, commits the manifest at the
// final extent and releases the backend. An Append that arrives after
// it returns ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	turn := l.turn
	l.mu.Unlock()
	<-turn // no batch is left, and none can start
	err := l.commit()
	if err != nil {
		err = fmt.Errorf("auditlog: commit: %w", err)
	}
	if cerr := l.b.Close(); err == nil {
		err = cerr
	}
	return err
}
