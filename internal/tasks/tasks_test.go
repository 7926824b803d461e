package tasks

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitTerminal polls a task until it reaches a terminal state.
func waitTerminal(t *testing.T, rt *Runtime, id string) Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s, err := rt.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		switch s.State {
		case "succeeded", "failed", "canceled":
			return s
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("task %s never reached a terminal state", id)
	return Snapshot{}
}

func TestTaskLifecycleSucceeds(t *testing.T) {
	rt := New(2, 8)
	defer rt.Drain(context.Background())
	id, err := rt.Submit(Class{Kind: "ok"}, func(ctx context.Context, p *Progress) (any, error) {
		p.Set(0, 3)
		for i := int64(1); i <= 3; i++ {
			p.Add(1)
		}
		return map[string]int{"n": 3}, nil
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	s := waitTerminal(t, rt, id)
	if s.State != "succeeded" {
		t.Fatalf("state = %s, want succeeded (last error %q)", s.State, s.LastError)
	}
	if s.Done != 3 || s.Total != 3 {
		t.Errorf("progress = %d/%d, want 3/3", s.Done, s.Total)
	}
	if s.Attempts != 1 {
		t.Errorf("attempts = %d, want 1", s.Attempts)
	}
	if s.Result == nil {
		t.Error("result missing from snapshot")
	}
	if s.Started.IsZero() || s.Finished.IsZero() || s.Heartbeat.IsZero() {
		t.Errorf("timestamps incomplete: started=%v finished=%v heartbeat=%v", s.Started, s.Finished, s.Heartbeat)
	}
	st := rt.Stats()
	if st.Succeeded != 1 || st.Submitted != 1 || st.Started != 1 {
		t.Errorf("stats = %+v, want 1 submitted/started/succeeded", st)
	}
}

// TestFlakyHandlerRetries pins the backoff/retry path with a
// fault-injected handler: fails N times, then succeeds. The task must
// converge to succeeded with attempts = N+1 and the retry counter
// matching.
func TestFlakyHandlerRetries(t *testing.T) {
	const failures = 3
	rt := New(1, 4)
	defer rt.Drain(context.Background())
	var calls atomic.Int32
	id, err := rt.Submit(Class{
		Kind:        "flaky",
		MaxAttempts: failures + 2,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
		Jitter:      0.5,
	}, func(ctx context.Context, p *Progress) (any, error) {
		if n := calls.Add(1); n <= failures {
			return nil, fmt.Errorf("transient fault %d", n)
		}
		return "converged", nil
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	s := waitTerminal(t, rt, id)
	if s.State != "succeeded" {
		t.Fatalf("state = %s, want succeeded (last error %q)", s.State, s.LastError)
	}
	if s.Attempts != failures+1 {
		t.Errorf("attempts = %d, want %d", s.Attempts, failures+1)
	}
	if got := calls.Load(); got != failures+1 {
		t.Errorf("handler calls = %d, want %d", got, failures+1)
	}
	if st := rt.Stats(); st.Retries != failures {
		t.Errorf("retries counter = %d, want %d", st.Retries, failures)
	}
	// A transient error seen along the way stays visible in the status.
	if s.LastError == "" {
		t.Error("last transient error was not preserved in status")
	}
}

func TestPermanentErrorSkipsRetries(t *testing.T) {
	rt := New(1, 4)
	defer rt.Drain(context.Background())
	var calls atomic.Int32
	id, _ := rt.Submit(Class{Kind: "perm", MaxAttempts: 5, BaseDelay: time.Millisecond},
		func(ctx context.Context, p *Progress) (any, error) {
			calls.Add(1)
			return nil, Permanent(errors.New("bad payload"))
		})
	s := waitTerminal(t, rt, id)
	if s.State != "failed" {
		t.Fatalf("state = %s, want failed", s.State)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("handler ran %d times, want 1 (permanent error must not retry)", got)
	}
	if s.LastError != "bad payload" {
		t.Errorf("last error = %q, want %q", s.LastError, "bad payload")
	}
}

// TestPanickingHandlerFailsItsTaskOnly: a handler that panics fails its
// task permanently, with an error naming the panic, and counts as failed;
// the one worker that ran it goes on to run the next task.
func TestPanickingHandlerFailsItsTaskOnly(t *testing.T) {
	rt := New(1, 4)
	defer rt.Drain(context.Background())
	var calls atomic.Int32
	id, err := rt.Submit(Class{Kind: "boom", MaxAttempts: 5, BaseDelay: time.Millisecond},
		func(ctx context.Context, p *Progress) (any, error) {
			calls.Add(1)
			var m map[string]int
			m["x"]++ // a nil map: the runtime panics
			return nil, nil
		})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	s := waitTerminal(t, rt, id)
	if s.State != "failed" || s.Attempts != 1 || calls.Load() != 1 {
		t.Fatalf("panicking task: state %s after %d attempts (%d calls), want failed after 1", s.State, s.Attempts, calls.Load())
	}
	if !strings.Contains(s.LastError, "panicked") || !strings.Contains(s.LastError, "nil map") {
		t.Fatalf("last error %q does not name the panic", s.LastError)
	}
	next, err := rt.Submit(Class{Kind: "ok"}, func(ctx context.Context, p *Progress) (any, error) { return "ran", nil })
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if s := waitTerminal(t, rt, next); s.State != "succeeded" {
		t.Fatalf("the task after the panic: state %s (%q), want succeeded", s.State, s.LastError)
	}
	if st := rt.Stats(); st.Failed != 1 || st.Succeeded != 1 || st.Retries != 0 {
		t.Fatalf("stats = %+v, want 1 failed, 1 succeeded, no retries", st)
	}
}

func TestCancelPendingTask(t *testing.T) {
	// One worker wedged on a blocker keeps the second task pending.
	rt := New(1, 4)
	defer rt.Drain(context.Background())
	release := make(chan struct{})
	blockID, _ := rt.Submit(Class{Kind: "block"}, func(ctx context.Context, p *Progress) (any, error) {
		<-release
		return nil, nil
	})
	pendID, _ := rt.Submit(Class{Kind: "pend"}, func(ctx context.Context, p *Progress) (any, error) {
		t.Error("canceled pending task must never run")
		return nil, nil
	})
	s, err := rt.Cancel(pendID)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if s.State != "canceled" {
		t.Fatalf("state after cancel = %s, want canceled", s.State)
	}
	close(release)
	waitTerminal(t, rt, blockID)
	if s = waitTerminal(t, rt, pendID); s.State != "canceled" {
		t.Fatalf("pending task ended %s, want canceled", s.State)
	}
	if st := rt.Stats(); st.Canceled != 1 {
		t.Errorf("canceled counter = %d, want 1", st.Canceled)
	}
}

func TestCancelRunningTask(t *testing.T) {
	rt := New(1, 4)
	defer rt.Drain(context.Background())
	started := make(chan struct{})
	id, _ := rt.Submit(Class{Kind: "long", MaxAttempts: 3, BaseDelay: time.Millisecond},
		func(ctx context.Context, p *Progress) (any, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		})
	<-started
	if _, err := rt.Cancel(id); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	s := waitTerminal(t, rt, id)
	if s.State != "canceled" {
		t.Fatalf("state = %s, want canceled (cancel mid-run must not count as failed)", s.State)
	}
	if s.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (no retry after cancel)", s.Attempts)
	}
}

func TestCancelDuringBackoffSleep(t *testing.T) {
	rt := New(1, 4)
	defer rt.Drain(context.Background())
	attempted := make(chan struct{}, 1)
	id, _ := rt.Submit(Class{Kind: "sleepy", MaxAttempts: 3, BaseDelay: time.Minute},
		func(ctx context.Context, p *Progress) (any, error) {
			select {
			case attempted <- struct{}{}:
			default:
			}
			return nil, errors.New("fail once")
		})
	<-attempted
	// The worker is now (or soon will be) in its one-minute backoff
	// sleep; cancel must interrupt it immediately.
	start := time.Now()
	if _, err := rt.Cancel(id); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	s := waitTerminal(t, rt, id)
	if s.State != "canceled" {
		t.Fatalf("state = %s, want canceled", s.State)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("cancel took %v — backoff sleep was not interrupted", el)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	rt := New(1, 1)
	defer rt.Drain(context.Background())
	release := make(chan struct{})
	defer close(release)
	blocker := func(ctx context.Context, p *Progress) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}
	if _, err := rt.Submit(Class{Kind: "a"}, blocker); err != nil {
		t.Fatalf("first Submit: %v", err)
	}
	// The worker may or may not have dequeued the first task yet; fill
	// until rejection, which must happen within queueCap+1 submissions.
	var err error
	for i := 0; i < 3; i++ {
		if _, err = rt.Submit(Class{Kind: "b"}, blocker); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull, got %v", err)
	}
}

func TestSubmitAfterDrainRejected(t *testing.T) {
	rt := New(1, 4)
	if err := rt.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if _, err := rt.Submit(Class{Kind: "late"}, func(ctx context.Context, p *Progress) (any, error) {
		return nil, nil
	}); !errors.Is(err, ErrDraining) {
		t.Fatalf("expected ErrDraining, got %v", err)
	}
}

// TestDrainWaitsForRunning parks two running and two queued tasks until
// Drain has begun: Drain may return only once all four have finished.
func TestDrainWaitsForRunning(t *testing.T) {
	rt := New(2, 8)
	gate := make(chan struct{})
	var finished atomic.Int32
	for i := 0; i < 4; i++ {
		rt.Submit(Class{Kind: "work"}, func(ctx context.Context, p *Progress) (any, error) {
			<-gate
			finished.Add(1)
			return nil, nil
		})
	}
	drained := make(chan error, 1)
	go func() { drained <- rt.Drain(context.Background()) }()
	for !rt.Draining() {
		runtime.Gosched()
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) while every task was parked", err)
	default:
	}
	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := finished.Load(); got != 4 {
		t.Errorf("drain returned with %d/4 tasks finished", got)
	}
}

func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	rt := New(1, 4)
	started := make(chan struct{})
	id, _ := rt.Submit(Class{Kind: "stuck"}, func(ctx context.Context, p *Progress) (any, error) {
		close(started)
		<-ctx.Done() // honors cancellation, but never finishes on its own
		return nil, ctx.Err()
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := rt.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want DeadlineExceeded", err)
	}
	if s, _ := rt.Get(id); s.State != "canceled" {
		t.Errorf("straggler state = %s, want canceled", s.State)
	}
}

// TestWorkerPoolBounded proves the pool runs exactly its size at once:
// every task parks at a gate, so the first `workers` tasks must all be
// running together before any is let go, and none beyond them may start.
func TestWorkerPoolBounded(t *testing.T) {
	const workers, tasks = 3, 32
	rt := New(workers, 64)
	defer rt.Drain(context.Background())
	var cur, peak atomic.Int32
	var wg sync.WaitGroup
	entered := make(chan struct{}, tasks)
	release := make(chan struct{})
	releaseAll := sync.OnceFunc(func() { close(release) })
	defer releaseAll() // before Drain: a failed run must not leave tasks parked
	wg.Add(tasks)
	for i := 0; i < tasks; i++ {
		rt.Submit(Class{Kind: "load"}, func(ctx context.Context, p *Progress) (any, error) {
			defer wg.Done()
			n := cur.Add(1)
			for {
				pk := peak.Load()
				if n <= pk || peak.CompareAndSwap(pk, n) {
					break
				}
			}
			entered <- struct{}{}
			<-release
			cur.Add(-1)
			return nil, nil
		})
	}
	guard := time.After(10 * time.Second) // fails a runtime that never fills its pool; never decides a pass
	for i := 0; i < workers; i++ {
		select {
		case <-entered:
		case <-guard:
			t.Fatalf("only %d of %d workers ran a task at once", i, workers)
		}
	}
	select {
	case <-entered:
		t.Fatalf("a task started while all %d workers were busy", workers)
	default:
	}
	releaseAll()
	wg.Wait()
	if pk := peak.Load(); pk != workers {
		t.Errorf("observed %d concurrent tasks, pool is %d", pk, workers)
	}
}

func TestListNewestFirstPaginated(t *testing.T) {
	rt := New(1, 16)
	defer rt.Drain(context.Background())
	var ids []string
	for i := 0; i < 5; i++ {
		id, err := rt.Submit(Class{Kind: "t"}, func(ctx context.Context, p *Progress) (any, error) {
			return nil, nil
		})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		waitTerminal(t, rt, id)
	}
	all, total := rt.List(0, 0)
	if total != 5 || len(all) != 5 {
		t.Fatalf("List(0,0) = %d items, total %d; want 5, 5", len(all), total)
	}
	for i := range all {
		if want := ids[len(ids)-1-i]; all[i].ID != want {
			t.Errorf("List[%d] = %s, want %s (newest first)", i, all[i].ID, want)
		}
	}
	win, total := rt.List(2, 1)
	if total != 5 || len(win) != 2 {
		t.Fatalf("List(2,1) = %d items, total %d; want 2, 5", len(win), total)
	}
	if win[0].ID != ids[3] || win[1].ID != ids[2] {
		t.Errorf("window = [%s %s], want [%s %s]", win[0].ID, win[1].ID, ids[3], ids[2])
	}
	if _, total := rt.List(10, 99); total != 5 {
		t.Errorf("offset past end: total = %d, want 5", total)
	}
}

// TestRuntimeForgetsOldestFinishedTasks: the directory keeps every task that
// has not finished and the newest retainTerminal that have. A task held open
// is submitted first, then retainTerminal+extra that finish at once: the
// oldest extra of those are forgotten — Get and Cancel answer as for an id
// never issued — the open one is not, and the counters still cover every
// task. Once the open one finishes it is the oldest finished task, and goes.
func TestRuntimeForgetsOldestFinishedTasks(t *testing.T) {
	const extra = 10
	rt := NewWithClock(2, 1+retainTerminal+extra, newFakeClock(), 1)
	running, release := make(chan struct{}), make(chan struct{})
	open, err := rt.Submit(Class{Kind: "open"}, func(ctx context.Context, p *Progress) (any, error) {
		close(running)
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-running
	var ids []string
	for i := 0; i < retainTerminal+extra; i++ {
		id, err := rt.Submit(Class{Kind: "quick"}, func(ctx context.Context, p *Progress) (any, error) {
			return i, nil
		})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	for {
		if _, total := rt.List(1, 0); rt.Stats().Succeeded == retainTerminal+extra && total == retainTerminal+1 {
			break
		}
		runtime.Gosched()
	}
	if s, err := rt.Get(open); err != nil || s.State != "running" {
		t.Fatalf("the unfinished task, older than every forgotten one: %+v, %v", s, err)
	}
	for _, id := range ids[:extra] {
		if _, err := rt.Get(id); !errors.Is(err, ErrUnknownTask) {
			t.Fatalf("Get(%s), one of the %d oldest finished tasks: %v, want ErrUnknownTask", id, extra, err)
		}
		if _, err := rt.Cancel(id); !errors.Is(err, ErrUnknownTask) {
			t.Fatalf("Cancel(%s): %v, want ErrUnknownTask", id, err)
		}
	}
	all, total := rt.List(0, 0)
	if total != retainTerminal+1 || len(all) != total || all[0].ID != ids[len(ids)-1] || all[total-2].ID != ids[extra] || all[total-1].ID != open {
		t.Fatalf("List: %d of %d tasks, from %s to %s", len(all), total, all[0].ID, all[len(all)-1].ID)
	}
	if s, err := rt.Get(ids[extra]); err != nil || s.State != "succeeded" || s.Result != extra {
		t.Fatalf("the oldest task kept: %+v, %v", s, err)
	}
	close(release)
	if err := rt.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if _, err := rt.Get(open); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("Get of the task that finished last but was submitted first: %v, want ErrUnknownTask", err)
	}
	if _, total := rt.List(0, 0); total != retainTerminal {
		t.Fatalf("%d tasks listed after the drain, want %d", total, retainTerminal)
	}
	const all1 = 1 + retainTerminal + extra
	if st := rt.Stats(); st.Submitted != all1 || st.Started != all1 || st.Succeeded != all1 || st.Failed+st.Canceled+st.Running+st.Queued != 0 {
		t.Fatalf("counters after forgetting %d tasks: %+v, want %d submitted, started and succeeded", extra+1, st, all1)
	}
}

func TestGetUnknownTask(t *testing.T) {
	rt := New(1, 1)
	defer rt.Drain(context.Background())
	if _, err := rt.Get("t999999"); !errors.Is(err, ErrUnknownTask) {
		t.Errorf("Get unknown = %v, want ErrUnknownTask", err)
	}
	if _, err := rt.Cancel("t999999"); !errors.Is(err, ErrUnknownTask) {
		t.Errorf("Cancel unknown = %v, want ErrUnknownTask", err)
	}
}
