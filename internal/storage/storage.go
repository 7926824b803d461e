// Package storage is the crash-safe persistence engine behind
// internal/repo: per-shard append-only logs of typed, CRC-framed
// records, immutable generation-numbered checkpoints, and a manifest
// (Meta) that is committed atomically *last* — so no reader can ever
// pair manifest generation N with shard state from generation N+1.
//
// There is one on-disk organisation, Flat: a checkpoint file and a log
// file per shard plus manifest.json. Backend stays an interface for the
// wrappers around it — Measure counts operations for the server, Fault
// injects crashes for the tests — and storagetest.Conformance holds
// Flat and both wrappers to the contract below:
//
//   - A shard's durable state is one checkpoint (a full fold of the
//     shard, written under a fresh generation number and immutable once
//     written) plus one append-only log of mutation records extending
//     that checkpoint.
//   - Checkpoints and logs under a new generation are invisible — and a
//     crash leaves them as harmless orphans — until Commit atomically
//     publishes a Meta referencing them. Commit is the single
//     durability point of a save.
//   - Meta records, per shard, the checkpoint generation, the
//     checkpoint's record count, and the committed log extent (LogLen,
//     in bytes). Readers replay the log only up to LogLen: records a
//     crashed writer appended past the last commit are ignored, and the
//     next Append(at=LogLen) overwrites them. A torn tail therefore
//     never corrupts a committed snapshot.
//   - Within the committed extent, every record is CRC-framed; a CRC
//     mismatch there is real corruption and is reported, not skipped.
//   - Past the committed extent a record's own CRC frame may stand in
//     for the manifest, but only in a log where each record is a whole
//     transaction and the log has a single writer that never rewinds:
//     ReplayTail streams the clean records found there and reports
//     where they end, and the owner continues appending from that
//     point. The audit log is such a log (one record per mutation,
//     durable once its Append returns), so it commits a manifest only
//     when it is created and when it is closed. A repository shard is
//     not: a save spans several shards and the user registry, and its
//     tail may hold part of a save whose Commit never happened — reading
//     it would pair one shard's new state with another's old one, the
//     torn snapshot the manifest exists to prevent. Shards are only ever
//     read up to LogLen.
//
// Writers are exclusive: at most one goroutine may run mutating calls
// (WriteCheckpoint/Append/Commit/DropShard) at a time — internal/repo
// serializes saves under its own lock, internal/auditlog hands its
// flushes a turn. Readers (Meta/ReadCheckpoint/ReplayLog/ReplayTail) may
// run concurrently with the writer and with each other; Commit spares
// the files of the previously committed generation so a reader holding
// the prior Meta can still finish.
//
// The three record readers stream a file frame by frame through memory
// they reuse — a bufio.Reader and a payload buffer from a pool — and never
// hold a file whole, so a load's fan-out workers each read through warm
// memory and keep only what they decode. A Record handed to a reader's
// callback is therefore valid until the callback returns, the way
// bufio.Scanner.Bytes is; a callback copies what it keeps. Only the
// manifest is read whole.
package storage

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"slices"
	"strings"
	"sync"
)

// RecordType tags a log/checkpoint record's payload.
type RecordType uint8

const (
	// RecSpec carries a workflow specification (JSON). Key: spec id.
	RecSpec RecordType = iota + 1
	// RecPolicy carries a privacy policy (JSON). Key: spec id.
	RecPolicy
	// RecExec carries one execution in full (JSON): in a repository shard,
	// the first execution of its shape. Key: execution id.
	RecExec
	// RecHier carries a spec's generalization hierarchies (JSON map of
	// attribute to ladder). Key: spec id.
	RecHier
	// RecAudit carries one mutation audit entry (JSON, internal/audit).
	// Key: decimal sequence number. Audit records live in their own
	// backend directory, never in a repository shard.
	RecAudit
	// RecValues carries an execution that is not the first of its shape in
	// its shard (JSON, exec.Shape.MarshalValues): the id of an execution
	// stored earlier in the shard, in full, and this one's item values in
	// that shape's item order. Key: execution id. Builds before PR 28 do
	// not know the type and refuse the shard as corrupt.
	RecValues
)

func (t RecordType) String() string {
	switch t {
	case RecSpec:
		return "spec"
	case RecPolicy:
		return "policy"
	case RecExec:
		return "exec"
	case RecHier:
		return "hier"
	case RecAudit:
		return "audit"
	case RecValues:
		return "values"
	}
	return fmt.Sprintf("record(%d)", uint8(t))
}

// Record is one typed mutation: a spec/policy/hierarchy replacement or
// an execution append, with its JSON payload. A record a reader streams
// (ReadCheckpoint, ReplayLog, ReplayTail) has Data in memory the reader
// reuses for the next record, the way bufio.Scanner.Bytes is: valid until
// the callback it was handed to returns, and read-only. A callback copies
// what it keeps.
type Record struct {
	Type RecordType
	Key  string
	Data []byte
}

// ShardInfo is one shard's entry in the committed manifest.
type ShardInfo struct {
	// Checkpoint is the generation number of the shard's current
	// checkpoint (checkpoints are immutable and named by generation, so
	// a new one never overwrites the one a concurrent reader is on).
	Checkpoint uint64 `json:"checkpoint"`
	// Records is the checkpoint's record count; readers verify it so a
	// partially missing checkpoint is detected, not silently shortened.
	Records uint64 `json:"records"`
	// LogLen is the committed extent of the shard's append log, in
	// bytes. Log content past it is an uncommitted orphan tail.
	LogLen uint64 `json:"log_len,omitempty"`
}

// Meta is the checkpointed manifest: the generation-numbered pointer
// set that Commit swaps atomically last.
type Meta struct {
	Generation uint64               `json:"generation"`
	Shards     map[string]ShardInfo `json:"shards,omitempty"`
	// Users is the serialized user registry (repo-level state that has
	// no shard to live in).
	Users json.RawMessage `json:"users,omitempty"`
}

var (
	// ErrLegacyLayout marks a directory written by the pre-log Save
	// (flat per-entity JSON files). Nothing in this tree reads it: the
	// loader that migrated such a directory on its first save went after
	// PR 20.
	ErrLegacyLayout = errors.New("storage: legacy (pre-log) layout; load and save it once with a build of PR 20 (b23f9a3) or earlier to migrate it")
	// ErrKVLayout marks a directory written by the KV backend (a single
	// store.kv and no manifest.json), which went with PR 26. Without the
	// refusal such a directory would read as an empty flat store and the
	// next save would commit an empty repository beside the real one.
	ErrKVLayout = errors.New("storage: KV-backend layout (store.kv); load it with the PR 25 build (ab65b3c) and Save to a fresh directory, which writes flat files")
	// ErrCorrupt marks invalid record data inside a committed extent —
	// real damage, as opposed to an ignorable uncommitted tail.
	ErrCorrupt = errors.New("storage: corrupt record")
)

// Backend is a pluggable crash-safe shard store. See the package
// comment for the shared durability contract.
type Backend interface {
	// Meta returns the last committed manifest, or a zero Meta when the
	// store is empty, or ErrLegacyLayout / ErrKVLayout for a directory
	// in a layout this tree no longer reads.
	Meta() (Meta, error)
	// WriteCheckpoint durably writes a full shard fold under gen. It
	// must not disturb checkpoints of other generations; the result is
	// invisible until a Commit references it.
	WriteCheckpoint(shard string, gen uint64, recs []Record) error
	// ReadCheckpoint streams the checkpoint's records in write order
	// and fails with ErrCorrupt if they don't total want. Each record is
	// valid until fn returns.
	ReadCheckpoint(shard string, gen uint64, want uint64, fn func(Record) error) error
	// Append durably appends records to the shard's gen log at offset
	// at (the committed LogLen), discarding any orphan tail beyond it,
	// and returns the new extent for the next Commit to publish.
	Append(shard string, gen, at uint64, recs []Record) (uint64, error)
	// ReplayLog streams the committed log records ([0, upTo)) in
	// append order. Each record is valid until fn returns.
	ReplayLog(shard string, gen, upTo uint64, fn func(Record) error) error
	// ReplayTail streams, in append order, the CRC-clean records found
	// past the committed extent from, stops without error at the first
	// torn or unreadable one, and returns the extent where the clean
	// records end — the at of the owner's next Append. Each record is valid
	// until fn returns. Only a log whose records commit themselves may be
	// read this way (see the package comment).
	ReplayTail(shard string, gen, from uint64, fn func(Record) error) (end uint64, err error)
	// Commit atomically publishes meta. It is the durability point:
	// everything meta references must survive a crash once Commit
	// returns. It may garbage-collect state unreachable from both meta
	// and the previously committed manifest.
	Commit(meta Meta) error
	// DropShard removes a shard's checkpoints and logs across all
	// generations (called after a Commit that no longer references it).
	DropShard(shard string) error
	Close() error
}

// FileBase derives a stable, filesystem/key-safe name stem from an id:
// the sanitized id (truncated) plus a 64-bit FNV hash of the raw id, so
// distinct ids sharing a sanitized prefix are kept apart (collision
// odds ~2^-64 per pair; not adversarially safe — loaders validate
// content).
func FileBase(id string) string {
	var b strings.Builder
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
		if b.Len() >= 40 {
			break
		}
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	return fmt.Sprintf("%s-%016x", b.String(), h.Sum64())
}

// Record payload layout: | u8 type | u32 key len | key | data |.
// Frame layout: | u32 payload len | u32 CRC32(payload) | payload |.

const (
	frameHeader   = 8       // u32 len + u32 crc
	maxPayloadLen = 1 << 30 // sanity bound; a spec or execution is MBs at most
)

// encodePayload renders a record's framed payload.
func encodePayload(rec Record) []byte {
	p := make([]byte, 0, 5+len(rec.Key)+len(rec.Data))
	p = append(p, byte(rec.Type))
	p = binary.BigEndian.AppendUint32(p, uint32(len(rec.Key)))
	p = append(p, rec.Key...)
	p = append(p, rec.Data...)
	return p
}

// decodePayload parses what encodePayload produced; ok is false when p is
// too short for its header or its key.
func decodePayload(p []byte) (rec Record, ok bool) {
	if len(p) < 5 {
		return Record{}, false
	}
	klen := binary.BigEndian.Uint32(p[1:5])
	if uint64(klen) > uint64(len(p)-5) {
		return Record{}, false
	}
	// Data aliases the payload, capped so an append cannot spill past it.
	return Record{Type: RecordType(p[0]), Key: string(p[5 : 5+klen]), Data: p[5+klen : len(p) : len(p)]}, true
}

// appendFrame appends one CRC frame around payload.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// encodeFrames renders records as a contiguous frame sequence.
func encodeFrames(recs []Record) []byte {
	var size int
	for _, r := range recs {
		size += frameHeader + 5 + len(r.Key) + len(r.Data)
	}
	buf := make([]byte, 0, size)
	for _, r := range recs {
		buf = appendFrame(buf, encodePayload(r))
	}
	return buf
}

// frameReader is the memory frames are streamed through: a bufio.Reader and
// a payload buffer, grown to the largest frame read and never cleared.
// Readers take one from frameReaders for a file and put it back, so the
// fan-out workers of a load read every shard through memory that is already
// warm and no file is ever held whole.
type frameReader struct {
	br      *bufio.Reader
	payload []byte
}

var frameReaders = sync.Pool{New: func() any {
	return &frameReader{br: bufio.NewReader(nil)}
}}

// streamFrames reads the frames in the next n bytes of r, calling fn with
// each record, whose Data is valid until fn returns. It stops at the first
// frame that is not whole within the n bytes, fails its CRC or does not
// decode, and returns the length of the clean frames before it: less than n
// only when it stopped at such a frame. Whatever follows that frame is never
// looked at, so a stale frame behind a torn one cannot be resurrected.
func streamFrames(r io.Reader, n uint64, fn func(Record) error) (uint64, error) {
	fr := frameReaders.Get().(*frameReader)
	fr.br.Reset(r)
	defer func() {
		fr.br.Reset(nil)
		frameReaders.Put(fr)
	}()
	var head [frameHeader]byte
	off := uint64(0)
	for off+frameHeader <= n {
		if _, err := io.ReadFull(fr.br, head[:]); err != nil {
			return off, torn(err)
		}
		size := uint64(binary.BigEndian.Uint32(head[:]))
		if size > maxPayloadLen || size > n-off-frameHeader {
			return off, nil
		}
		p, err := fr.next(int(size))
		if err != nil {
			return off, torn(err)
		}
		if crc32.ChecksumIEEE(p) != binary.BigEndian.Uint32(head[4:]) {
			return off, nil
		}
		rec, ok := decodePayload(p)
		if !ok {
			return off, nil
		}
		if err := fn(rec); err != nil {
			return off, err
		}
		off += frameHeader + size
	}
	return off, nil
}

// next reads the next size bytes into the payload buffer, valid until the
// next read.
func (fr *frameReader) next(size int) ([]byte, error) {
	fr.payload = slices.Grow(fr.payload[:0], size)[:size]
	_, err := io.ReadFull(fr.br, fr.payload)
	return fr.payload, err
}

// torn is nil for a file that ends inside a frame, which ends the clean
// frames like any other torn one, and err for anything else.
func torn(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil
	}
	return err
}

// replayCommitted streams the frames of r's first upTo bytes, a committed
// extent: any frame there that is not whole and clean is ErrCorrupt.
func replayCommitted(r io.Reader, upTo uint64, fn func(Record) error) error {
	clean, err := streamFrames(r, upTo, fn)
	if err == nil && clean != upTo {
		err = fmt.Errorf("%w: bad frame at offset %d of committed extent %d", ErrCorrupt, clean, upTo)
	}
	return err
}
