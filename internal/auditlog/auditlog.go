// Package auditlog is the append-only mutation audit log: who changed
// what, when, with what outcome — provenance for the provenance store
// itself. Every mutation request (including denied ones) becomes
// exactly one Record, durably appended through a storage.Backend before
// the append returns, and queryable newest-first from an in-memory
// ring via the admin audit endpoint.
//
// The log deliberately reuses the crash-safe storage contract from
// internal/storage instead of inventing a file format: records are
// CRC-framed appends under a committed extent, so a torn tail from a
// crash mid-append is truncated on reopen, never misread. It lives in
// its own backend directory (one shard, "audit") — repository shards
// hold typed engine records and their loader rejects foreign types, so
// the two must not share a directory.
//
// Secrets never enter the log: callers record token *names* and
// principal names only.
package auditlog

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"time"

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

// Log is the durable audit log. Appends serialize under one mutex —
// audit throughput is bounded by mutation throughput, which is already
// serialized per shard upstream, so a single writer lock is not the
// bottleneck; it buys strictly ordered sequence numbers and a simple
// durability story (one Commit per append).
type Log struct {
	mu     sync.Mutex
	b      storage.Backend
	gen    uint64
	logLen uint64
	seq    uint64
	total  uint64

	// ring holds the newest ringN records, oldest at ringHead, wrapping.
	ring     [ringSize]Record
	ringHead int
	ringN    int // records in ring (≤ ringSize)
}

// Open attaches to (or initializes) an audit log on b. Committed
// records are replayed to reseed the sequence counter and the query
// ring; an uncommitted torn tail is discarded by the storage contract.
// The Log takes ownership of b: Close closes it.
func Open(b storage.Backend) (*Log, error) {
	meta, err := b.Meta()
	if err != nil {
		return nil, fmt.Errorf("auditlog: read meta: %w", err)
	}
	l := &Log{b: b}
	info, ok := meta.Shards[shard]
	if !ok {
		// Fresh log: commit an empty checkpoint so the shard exists and
		// every later append is just Append+Commit.
		l.gen = meta.Generation + 1
		if err := b.WriteCheckpoint(shard, l.gen, nil); err != nil {
			return nil, fmt.Errorf("auditlog: init checkpoint: %w", err)
		}
		if err := b.Commit(storage.Meta{
			Generation: l.gen,
			Shards:     map[string]storage.ShardInfo{shard: {Checkpoint: l.gen}},
		}); err != nil {
			return nil, fmt.Errorf("auditlog: init commit: %w", err)
		}
		return l, nil
	}
	l.gen = info.Checkpoint
	l.logLen = info.LogLen
	err = b.ReplayLog(shard, l.gen, l.logLen, func(rec storage.Record) error {
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
		l.total++
		l.push(r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return l, nil
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
// (when unset), durably appends it, and commits. The record is
// queryable and crash-survivable once Append returns.
func (l *Log) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
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
		l.seq--
		return fmt.Errorf("auditlog: encode: %w", err)
	}
	newLen, err := l.b.Append(shard, l.gen, l.logLen, []storage.Record{{
		Type: storage.RecAudit,
		Key:  strconv.FormatUint(r.Seq, 10),
		Data: data,
	}})
	if err != nil {
		l.seq-- // the record never happened
		return fmt.Errorf("auditlog: append: %w", err)
	}
	if err := l.b.Commit(storage.Meta{
		Generation: l.gen,
		Shards:     map[string]storage.ShardInfo{shard: {Checkpoint: l.gen, LogLen: newLen}},
	}); err != nil {
		l.seq--
		return fmt.Errorf("auditlog: commit: %w", err)
	}
	l.logLen = newLen
	l.total++
	l.push(r)
	return nil
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
	return recs, l.total
}

// Total returns how many records the log has ever recorded (including
// ones rotated out of the query window).
func (l *Log) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Close releases the backend.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Close()
}
