package auditlog

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"provpriv/internal/storage"
)

func openTestLog(t *testing.T, dir string) *Log {
	t.Helper()
	b, err := storage.OpenFlat(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(b)
	if err != nil {
		b.Close()
		t.Fatal(err)
	}
	return l
}

// TestAppendAssignsFields: Append fills seq, time and outcome; sequence
// numbers are 1-based and strictly increasing.
func TestAppendAssignsFields(t *testing.T) {
	l := openTestLog(t, t.TempDir())
	defer l.Close()

	if err := l.Append(Record{Principal: "alice", Action: "spec.add", Status: 201}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Principal: "bob", Action: "spec.remove", Status: 403}); err != nil {
		t.Fatal(err)
	}
	recs, total := l.Recent(Query{})
	if total != 2 || len(recs) != 2 {
		t.Fatalf("total=%d len=%d, want 2/2", total, len(recs))
	}
	// Newest first.
	if recs[0].Seq != 2 || recs[1].Seq != 1 {
		t.Fatalf("seqs = %d,%d, want 2,1", recs[0].Seq, recs[1].Seq)
	}
	if recs[0].Outcome != "denied" || recs[1].Outcome != "ok" {
		t.Fatalf("outcomes = %q,%q, want denied,ok", recs[0].Outcome, recs[1].Outcome)
	}
	if recs[0].Time.IsZero() || recs[1].Time.IsZero() {
		t.Fatal("Append left Time zero")
	}
}

// TestReopenSurvivesRestart: records are durable and the sequence
// counter continues where it left off after a close/reopen.
func TestReopenSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir)
	for i := 0; i < 3; i++ {
		if err := l.Append(Record{Principal: "alice", Action: "spec.add", Status: 201}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l = openTestLog(t, dir)
	defer l.Close()
	recs, total := l.Recent(Query{})
	if total != 3 || len(recs) != 3 {
		t.Fatalf("after reopen: total=%d len=%d, want 3/3", total, len(recs))
	}
	if err := l.Append(Record{Principal: "alice", Action: "spec.remove", Status: 200}); err != nil {
		t.Fatal(err)
	}
	recs, total = l.Recent(Query{})
	if total != 4 || recs[0].Seq != 4 {
		t.Fatalf("post-reopen append: total=%d seq=%d, want 4/4 (sequence continues)", total, recs[0].Seq)
	}
}

// TestOpensDirectoryWrittenBeforeSelfCommit: testdata/pr21 is an audit
// directory written by the last build that committed a manifest per
// record (PR 21, five records). It opens with the same total, sequence
// numbers and ring contents that build served, and the log continues
// after them.
func TestOpensDirectoryWrittenBeforeSelfCommit(t *testing.T) {
	dir := t.TempDir()
	files, err := filepath.Glob("testdata/pr21/*")
	if err != nil || len(files) != 3 {
		t.Fatalf("fixture files = %v (err %v), want manifest, checkpoint and log", files, err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/pr21-recent.json")
	if err != nil {
		t.Fatal(err)
	}
	l := openTestLog(t, dir)
	recs, total := l.Recent(Query{})
	got, _ := json.MarshalIndent(recs, "", "  ")
	if total != 5 || string(got)+"\n" != string(want) {
		t.Fatalf("total = %d, window:\n%s\nwant 5 and what PR 21 served:\n%s", total, got, want)
	}
	if err := l.Append(Record{Action: "exec.add", Status: 201}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l = openTestLog(t, dir)
	defer l.Close()
	if recs, total := l.Recent(Query{Limit: 1}); total != 6 || recs[0].Seq != 6 {
		t.Fatalf("after one more append and a reopen: total = %d, newest seq %d, want 6 and 6", total, recs[0].Seq)
	}
}

// TestRingRotation: the durable total keeps counting past the query
// window; the window holds the newest ringSize records, newest first
// with no gap, filters still apply across the wrap, and a reopened log
// rebuilds the same window from the backend.
func TestRingRotation(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir)
	const n = ringSize + 50
	for i := 0; i < n; i++ {
		principal := "alice"
		if i%2 == 1 {
			principal = "bob"
		}
		if err := l.Append(Record{Principal: principal, Action: "exec.add", Status: 201}); err != nil {
			t.Fatal(err)
		}
	}
	checkWindow := func(stage string) {
		t.Helper()
		recs, total := l.Recent(Query{Limit: ringSize})
		if total != n {
			t.Fatalf("%s: total = %d, want %d", stage, total, n)
		}
		if len(recs) != ringSize {
			t.Fatalf("%s: window = %d records, want %d", stage, len(recs), ringSize)
		}
		for i, r := range recs {
			if want := uint64(n - i); r.Seq != want {
				t.Fatalf("%s: record %d has seq %d, want %d (newest first, no gaps)", stage, i, r.Seq, want)
			}
		}
		// Odd sequence numbers are alice's (i = seq-1 even).
		bobs, _ := l.Recent(Query{Principal: "bob", Limit: ringSize})
		if len(bobs) != ringSize/2 {
			t.Fatalf("%s: %d records by bob in the window, want %d", stage, len(bobs), ringSize/2)
		}
		for i, r := range bobs {
			if want := uint64(n - 2*i); r.Principal != "bob" || r.Seq != want {
				t.Fatalf("%s: bob's record %d is %s seq %d, want seq %d", stage, i, r.Principal, r.Seq, want)
			}
		}
	}
	checkWindow("live")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l = openTestLog(t, dir)
	defer l.Close()
	checkWindow("reopened")
}

// TestRecentFilters: principal/action filters and the limit cap.
func TestRecentFilters(t *testing.T) {
	l := openTestLog(t, t.TempDir())
	defer l.Close()
	for i := 0; i < 6; i++ {
		p := "alice"
		if i%2 == 1 {
			p = "bob"
		}
		a := "spec.add"
		if i%3 == 0 {
			a = "policy.update"
		}
		if err := l.Append(Record{Principal: p, Action: a, Status: 200, Target: fmt.Sprintf("t%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	recs, _ := l.Recent(Query{Principal: "bob"})
	if len(recs) != 3 {
		t.Fatalf("bob records = %d, want 3", len(recs))
	}
	for _, r := range recs {
		if r.Principal != "bob" {
			t.Fatalf("filter leaked record for %q", r.Principal)
		}
	}
	recs, _ = l.Recent(Query{Action: "policy.update"})
	if len(recs) != 2 {
		t.Fatalf("policy.update records = %d, want 2", len(recs))
	}
	recs, _ = l.Recent(Query{Limit: 2})
	if len(recs) != 2 || recs[0].Seq != 6 {
		t.Fatalf("limit 2: got %d records, newest seq %d", len(recs), recs[0].Seq)
	}
}

// TestOutcomeFor pins the status classification.
func TestOutcomeFor(t *testing.T) {
	cases := map[int]string{
		200: "ok", 201: "ok", 202: "ok",
		401: "denied", 403: "denied",
		400: "rejected", 404: "rejected", 409: "rejected", 413: "rejected", 429: "rejected",
		500: "error", 503: "error",
	}
	for status, want := range cases {
		if got := OutcomeFor(status); got != want {
			t.Fatalf("OutcomeFor(%d) = %q, want %q", status, got, want)
		}
	}
}
