package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReplayTail glues arbitrary bytes onto a committed flat log and
// reads it the way a self-committing log is reopened. Whatever the
// bytes: no error; every record yielded sits, CRC-clean, in an unbroken
// run of frames from the committed extent (so nothing behind a bad frame
// is resurrected) and the run stops only at a frame that is not clean;
// the committed extent reads as before; and an Append at the returned
// end leaves a log that reads back whole.
func FuzzReplayTail(f *testing.F) {
	frame := func(typ RecordType, key, data string) []byte {
		return encodeFrames([]Record{{Type: typ, Key: key, Data: []byte(data)}})
	}
	good := frame(RecAudit, "3", `{"seq":3}`)
	badCRC := append([]byte(nil), good...)
	badCRC[len(badCRC)-1] ^= 0xff
	f.Add([]byte{})
	f.Add(good[:5])                                                      // truncated header
	f.Add(binary.BigEndian.AppendUint32(nil, 1<<20))                     // header cut after the length
	f.Add(append(binary.BigEndian.AppendUint32(nil, 4096), good[4:]...)) // length past EOF
	f.Add(badCRC)
	f.Add(append(append([]byte(nil), badCRC...), good...)) // a valid frame behind a bad one
	f.Add(append(append([]byte(nil), good...), good[:len(good)/2]...))
	f.Add(append(append([]byte(nil), good...), frame(RecAudit, "4", `{"seq":4}`)...))
	f.Add(append(frame(RecExec, "e1", `{"id":"e1"}`), frame(RecValues, "e2", `{"like":"e1","values":["v"]}`)...))
	f.Add(appendFrame(nil, []byte{byte(RecAudit), 0, 0})) // CRC-clean, payload too short to decode

	committed := []Record{
		{Type: RecAudit, Key: "1", Data: []byte(`{"seq":1}`)},
		{Type: RecAudit, Key: "2", Data: []byte(`{"seq":2}`)},
	}
	head := encodeFrames(committed)
	same := func(a, b []Record) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Type != b[i].Type || a[i].Key != b[i].Key || !bytes.Equal(a[i].Data, b[i].Data) {
				return false
			}
		}
		return true
	}

	f.Fuzz(func(t *testing.T, glued []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, walName("s", 1))
		if err := os.WriteFile(path, append(append([]byte(nil), head...), glued...), 0o644); err != nil {
			t.Fatal(err)
		}
		fl, err := OpenFlat(dir)
		if err != nil {
			t.Fatal(err)
		}
		from := uint64(len(head))
		// A record's Data is valid until the callback returns: keep a copy.
		collect := func(dst *[]Record) func(Record) error {
			return func(r Record) error {
				r.Data = bytes.Clone(r.Data)
				*dst = append(*dst, r)
				return nil
			}
		}

		var tail []Record
		end, err := fl.ReplayTail("s", 1, from, collect(&tail))
		if err != nil {
			t.Fatalf("ReplayTail: %v", err)
		}
		if end < from || end > from+uint64(len(glued)) {
			t.Fatalf("end %d outside [%d, %d]", end, from, from+uint64(len(glued)))
		}
		// What was yielded, re-encoded, is byte for byte the run it ended at.
		if run := glued[:end-from]; !bytes.Equal(encodeFrames(tail), run) {
			t.Fatalf("yielded records do not re-encode to the %d bytes they were read from", len(run))
		}
		// And the run is maximal: the bytes at end are no whole, clean,
		// decodable frame (checked against the layout, not with frameAt).
		if rest := glued[end-from:]; len(rest) >= frameHeader {
			n := binary.BigEndian.Uint32(rest)
			if uint64(n) <= uint64(len(rest)-frameHeader) {
				p := rest[frameHeader : frameHeader+int(n)]
				if crc32.ChecksumIEEE(p) == binary.BigEndian.Uint32(rest[4:]) && len(p) >= 5 &&
					uint64(binary.BigEndian.Uint32(p[1:5])) <= uint64(len(p)-5) {
					t.Fatalf("tail stopped at %d in front of a clean frame", end)
				}
			}
		}

		var extent []Record
		if err := fl.ReplayLog("s", 1, from, collect(&extent)); err != nil || !same(extent, committed) {
			t.Fatalf("committed extent reads %v (err %v) with %d bytes glued on", extent, err, len(glued))
		}

		next := Record{Type: RecAudit, Key: "9", Data: []byte(`{"seq":9}`)}
		end2, err := fl.Append("s", 1, end, []Record{next})
		if err != nil {
			t.Fatalf("Append at the tail's end: %v", err)
		}
		fl2, err := OpenFlat(dir)
		if err != nil {
			t.Fatal(err)
		}
		var again []Record
		got, err := fl2.ReplayTail("s", 1, from, collect(&again))
		if err != nil || got != end2 || !same(again, append(tail, next)) {
			t.Fatalf("reopened tail = %d records ending at %d (err %v), want %d ending at %d",
				len(again), got, err, len(tail)+1, end2)
		}
		if st, err := os.Stat(path); err != nil || uint64(st.Size()) != end2 {
			t.Fatalf("log is %d bytes after the append (err %v), want %d: the glued bytes were not cut off", st.Size(), err, end2)
		}
	})
}
