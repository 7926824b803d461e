package auditlog

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"provpriv/internal/storage"
)

// gateBackend is a flat backend whose first Append parks on a channel
// (and can be made to fail once released), and which writes down what it
// was asked to do — the hand-off's interleavings enumerated, not hoped
// for.
type gateBackend struct {
	storage.Backend
	gate      chan struct{} // Append #1 waits for it to close
	failFirst error         // when set, Append #1 returns it and writes nothing
	// arrived gets one token per Append call, sent before it parks.
	// Buffered to the most calls any test here makes.
	arrived chan struct{}

	mu      sync.Mutex
	appends []gatedAppend
	events  []string
}

type gatedAppend struct {
	at   uint64
	recs int
}

func (g *gateBackend) note(event string) {
	g.mu.Lock()
	g.events = append(g.events, event)
	g.mu.Unlock()
}

func (g *gateBackend) Append(shard string, gen, at uint64, recs []storage.Record) (uint64, error) {
	g.mu.Lock()
	g.appends = append(g.appends, gatedAppend{at: at, recs: len(recs)})
	first := len(g.appends) == 1
	g.events = append(g.events, "append-start")
	g.mu.Unlock()
	g.arrived <- struct{}{}
	defer g.note("append-end")
	if first {
		<-g.gate
		if g.failFirst != nil {
			return 0, g.failFirst
		}
	}
	return g.Backend.Append(shard, gen, at, recs)
}

func (g *gateBackend) Commit(meta storage.Meta) error {
	g.note("commit")
	return g.Backend.Commit(meta)
}

func (g *gateBackend) Close() error {
	g.note("close")
	return g.Backend.Close()
}

func (g *gateBackend) calls() []gatedAppend {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]gatedAppend(nil), g.appends...)
}

// awaitJoined spins until the open batch holds k records.
func awaitJoined(l *Log, k int) {
	for {
		l.mu.Lock()
		n := 0
		if l.open != nil {
			n = len(l.open.recs)
		}
		l.mu.Unlock()
		if n == k {
			return
		}
		runtime.Gosched()
	}
}

// parkedLog opens a log on a gate backend whose first Append is parked
// (and, with failFirst, fails once released), starts one appender into
// it and returns once that flush is inside the backend. The appender's
// result arrives on first.
func parkedLog(t *testing.T, dir string, failFirst error) (l *Log, g *gateBackend, release func(), first chan error) {
	t.Helper()
	b, err := storage.OpenFlat(dir)
	if err != nil {
		t.Fatal(err)
	}
	g = &gateBackend{Backend: b, gate: make(chan struct{}), failFirst: failFirst, arrived: make(chan struct{}, 8)}
	release = sync.OnceFunc(func() { close(g.gate) })
	t.Cleanup(release)
	if l, err = Open(g); err != nil {
		t.Fatal(err)
	}
	first = make(chan error, 1)
	go func() { first <- l.Append(Record{Action: "exec.add", Target: "first", Status: 201}) }()
	<-g.arrived
	return l, g, release, first
}

// joinBatch starts k appenders and returns once all of them sit in the
// open batch, behind the parked flush.
func joinBatch(l *Log, k int) chan error {
	errs := make(chan error, k)
	for i := 0; i < k; i++ {
		go func() { errs <- l.Append(Record{Action: "exec.add", Target: "joined", Status: 201}) }()
	}
	awaitJoined(l, k)
	return errs
}

// TestArrivalsDuringAFlushShareTheNextOne: k appenders that arrive while
// a flush is inside the backend become one batch — exactly one more
// Backend.Append, carrying exactly k records, starting where the first
// ended.
func TestArrivalsDuringAFlushShareTheNextOne(t *testing.T) {
	const k = 5
	l, g, release, first := parkedLog(t, t.TempDir(), nil)
	defer l.Close()
	errs := joinBatch(l, k)
	if got := l.Total(); got != 0 {
		t.Fatalf("total = %d while the first flush is still parked", got)
	}
	release()
	if err := <-first; err != nil {
		t.Fatalf("first append: %v", err)
	}
	for i := 0; i < k; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("joined append: %v", err)
		}
	}
	calls := g.calls()
	if len(calls) != 2 || calls[0].recs != 1 || calls[1].recs != k {
		t.Fatalf("backend appends = %+v, want one of 1 record then one of %d", calls, k)
	}
	if calls[0].at != 0 || calls[1].at <= calls[0].at {
		t.Fatalf("backend appends = %+v, want the second after the first", calls)
	}
	recs := window(l)
	if len(recs) != k+1 || l.flushes.Load() != 2 {
		t.Fatalf("%d records in %d flushes, want %d in 2", len(recs), l.flushes.Load(), k+1)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("ring position %d holds seq %d: not published in sequence order", i, r.Seq)
		}
	}
}

// TestFailedFlushFailsExactlyItsMembers: the parked flush fails. Its one
// member gets the error, the k records behind it do not, their batch
// lands at the offset the failed one was aimed at, and a reopened log
// holds those k and nothing of the failed one.
func TestFailedFlushFailsExactlyItsMembers(t *testing.T) {
	const k = 3
	dir := t.TempDir()
	boom := errors.New("disk on fire")
	l, g, release, first := parkedLog(t, dir, boom)
	errs := joinBatch(l, k)
	release()
	if err := <-first; !errors.Is(err, boom) {
		t.Fatalf("member of the failed flush got %v, want %v", err, boom)
	}
	for i := 0; i < k; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("append behind the failed flush: %v", err)
		}
	}
	calls := g.calls()
	if len(calls) != 2 || calls[1].recs != k || calls[1].at != calls[0].at {
		t.Fatalf("backend appends = %+v, want the second (%d records) at the first's offset", calls, k)
	}
	check := func(stage string, l *Log) {
		t.Helper()
		recs := window(l)
		if len(recs) != k || l.Total() != k {
			t.Fatalf("%s: %d records, total %d, want %d", stage, len(recs), l.Total(), k)
		}
		for i, r := range recs {
			// Seq 1 went with the failed record and is not reused.
			if r.Seq != uint64(i+2) || r.Target != "joined" {
				t.Fatalf("%s: record %d = %s seq %d, want joined seq %d", stage, i, r.Target, r.Seq, i+2)
			}
		}
	}
	check("live", l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l = openTestLog(t, dir)
	defer l.Close()
	check("reopened", l)
}

// TestCloseWaitsForTheFlushInFlight: Close called while a flush is inside
// the backend commits and closes only after that flush has returned, and
// from the moment Close has been called an Append is refused without
// touching the backend.
func TestCloseWaitsForTheFlushInFlight(t *testing.T) {
	l, g, release, first := parkedLog(t, t.TempDir(), nil)
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	for isClosed := false; !isClosed; runtime.Gosched() {
		l.mu.Lock()
		isClosed = l.closed
		l.mu.Unlock()
	}
	if err := l.Append(Record{Action: "exec.add", Target: "late", Status: 201}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	release()
	if err := <-first; err != nil {
		t.Fatalf("append in flight when Close was called: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.Append(Record{Action: "exec.add", Target: "later", Status: 201}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close returned = %v, want ErrClosed", err)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	// Open's initial commit, then the one flush, then Close's own two calls.
	want := []string{"commit", "append-start", "append-end", "commit", "close"}
	if len(g.events) != len(want) {
		t.Fatalf("backend saw %v, want %v", g.events, want)
	}
	for i := range want {
		if g.events[i] != want[i] {
			t.Fatalf("backend saw %v, want %v", g.events, want)
		}
	}
}
