package storage

import (
	"sync/atomic"
	"time"
)

// Measure wraps a Backend and counts every operation, so the server
// can surface storage activity in /stats and /metrics without the
// backends knowing about instrumentation.
type Measure struct {
	b Backend

	appends           atomic.Uint64 //provlint:counter
	appendRecords     atomic.Uint64 //provlint:counter
	appendNanos       atomic.Uint64 //provlint:counter
	replays           atomic.Uint64 //provlint:counter
	replayRecords     atomic.Uint64 //provlint:counter
	replayNanos       atomic.Uint64 //provlint:counter
	checkpoints       atomic.Uint64 //provlint:counter
	checkpointRecords atomic.Uint64 //provlint:counter
	checkpointNanos   atomic.Uint64 //provlint:counter
	checkpointReads   atomic.Uint64 //provlint:counter
	commits           atomic.Uint64 //provlint:counter
	commitNanos       atomic.Uint64 //provlint:counter
	drops             atomic.Uint64 //provlint:counter
	errors            atomic.Uint64 //provlint:counter
}

// NewMeasure wraps b.
func NewMeasure(b Backend) *Measure { return &Measure{b: b} }

// MeasureStats is a point-in-time snapshot of the counters, shaped for
// the server's /stats JSON.
type MeasureStats struct {
	Appends           uint64 `json:"appends"`
	AppendRecords     uint64 `json:"append_records"`
	AppendNanos       uint64 `json:"append_nanos"`
	Replays           uint64 `json:"replays"`
	ReplayRecords     uint64 `json:"replay_records"`
	ReplayNanos       uint64 `json:"replay_nanos"`
	Checkpoints       uint64 `json:"checkpoints"`
	CheckpointRecords uint64 `json:"checkpoint_records"`
	CheckpointNanos   uint64 `json:"checkpoint_nanos"`
	CheckpointReads   uint64 `json:"checkpoint_reads"`
	Commits           uint64 `json:"commits"`
	CommitNanos       uint64 `json:"commit_nanos"`
	Drops             uint64 `json:"drops"`
	Errors            uint64 `json:"errors"`
}

// Stats snapshots the counters.
func (m *Measure) Stats() MeasureStats {
	return MeasureStats{
		Appends:           m.appends.Load(),
		AppendRecords:     m.appendRecords.Load(),
		AppendNanos:       m.appendNanos.Load(),
		Replays:           m.replays.Load(),
		ReplayRecords:     m.replayRecords.Load(),
		ReplayNanos:       m.replayNanos.Load(),
		Checkpoints:       m.checkpoints.Load(),
		CheckpointRecords: m.checkpointRecords.Load(),
		CheckpointNanos:   m.checkpointNanos.Load(),
		CheckpointReads:   m.checkpointReads.Load(),
		Commits:           m.commits.Load(),
		CommitNanos:       m.commitNanos.Load(),
		Drops:             m.drops.Load(),
		Errors:            m.errors.Load(),
	}
}

func (m *Measure) note(err error) error {
	if err != nil {
		m.errors.Add(1)
	}
	return err
}

// Meta implements Backend.
func (m *Measure) Meta() (Meta, error) {
	meta, err := m.b.Meta()
	return meta, m.note(err)
}

// WriteCheckpoint implements Backend.
func (m *Measure) WriteCheckpoint(shard string, gen uint64, recs []Record) error {
	start := time.Now()
	err := m.b.WriteCheckpoint(shard, gen, recs)
	m.checkpointNanos.Add(uint64(time.Since(start)))
	m.checkpoints.Add(1)
	m.checkpointRecords.Add(uint64(len(recs)))
	return m.note(err)
}

// ReadCheckpoint implements Backend.
func (m *Measure) ReadCheckpoint(shard string, gen uint64, want uint64, fn func(Record) error) error {
	m.checkpointReads.Add(1)
	return m.note(m.b.ReadCheckpoint(shard, gen, want, fn))
}

// Append implements Backend.
func (m *Measure) Append(shard string, gen, at uint64, recs []Record) (uint64, error) {
	start := time.Now()
	n, err := m.b.Append(shard, gen, at, recs)
	m.appendNanos.Add(uint64(time.Since(start)))
	m.appends.Add(1)
	m.appendRecords.Add(uint64(len(recs)))
	return n, m.note(err)
}

// ReplayLog implements Backend.
func (m *Measure) ReplayLog(shard string, gen, upTo uint64, fn func(Record) error) error {
	start := time.Now()
	m.replays.Add(1)
	err := m.b.ReplayLog(shard, gen, upTo, func(rec Record) error {
		m.replayRecords.Add(1)
		return fn(rec)
	})
	m.replayNanos.Add(uint64(time.Since(start)))
	return m.note(err)
}

// ReplayTail implements Backend, counted as a replay.
func (m *Measure) ReplayTail(shard string, gen, from uint64, fn func(Record) error) (uint64, error) {
	start := time.Now()
	m.replays.Add(1)
	end, err := m.b.ReplayTail(shard, gen, from, func(rec Record) error {
		m.replayRecords.Add(1)
		return fn(rec)
	})
	m.replayNanos.Add(uint64(time.Since(start)))
	return end, m.note(err)
}

// Commit implements Backend.
func (m *Measure) Commit(meta Meta) error {
	start := time.Now()
	err := m.b.Commit(meta)
	m.commitNanos.Add(uint64(time.Since(start)))
	m.commits.Add(1)
	return m.note(err)
}

// DropShard implements Backend.
func (m *Measure) DropShard(shard string) error {
	m.drops.Add(1)
	return m.note(m.b.DropShard(shard))
}

// Close implements Backend.
func (m *Measure) Close() error { return m.note(m.b.Close()) }
