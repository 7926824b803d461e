// Package tasks is the in-process asynchronous task runtime behind the
// repository's heavy operations: bulk ingest, background compaction
// folds — anything that used to run on the request path and degrade every
// concurrent reader while it did.
//
// The model follows the task-queue design of production content
// services: a bounded worker pool pulls typed tasks off a bounded
// queue; each task runs a per-task state machine
//
//	pending → running → succeeded | failed | canceled
//
// with a retry budget and exponential backoff (with jitter) per task
// class, heartbeat-based progress reporting (items done / total, last
// error, last heartbeat time), and context-threaded cancellation: the
// handler receives a context that fires when the task is canceled or
// the runtime is force-stopped, and a cancel mid-run is an ordinary
// early return, never a goroutine kill — so a canceled bulk ingest
// leaves the repository in whatever consistent prefix state the
// handler had reached.
//
// Retries run in-worker: a failing task sleeps its backoff on the
// worker that ran it (interruptible by cancel), so a task class with a
// long MaxDelay should be rare or the pool sized accordingly. Time is
// injected through the Clock interface; tests drive the backoff
// schedule with a deterministic clock.
//
// Everything the runtime reports — Snapshot, Stats — is a copy; the
// live Task is never shared outside the package. The directory remembers
// every task that has not finished and the newest retainTerminal that have;
// the counters in Stats cover every task ever submitted.
package tasks

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// State is a task's position in its lifecycle state machine.
type State int

const (
	// Pending: submitted, waiting for a worker.
	Pending State = iota
	// Running: a worker is executing the handler (or sleeping a backoff
	// between attempts).
	Running
	// Succeeded: the handler returned nil. Terminal.
	Succeeded
	// Failed: the retry budget is exhausted (or the error was marked
	// permanent); LastError holds the final attempt's error. Terminal.
	Failed
	// Canceled: canceled before or during execution. Terminal.
	Canceled
)

func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Succeeded:
		return "succeeded"
	case Failed:
		return "failed"
	case Canceled:
		return "canceled"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Succeeded || s == Failed || s == Canceled }

// Class bundles the retry policy of one kind of task. The zero value
// is normalized to a single attempt with no backoff.
type Class struct {
	// Kind names the task class ("bulk-ingest", "compact", ...); it is
	// reported in snapshots and metrics labels.
	Kind string
	// MaxAttempts is the retry budget: total attempts, including the
	// first (minimum 1).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt.
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff (0 = uncapped).
	MaxDelay time.Duration
	// Multiplier grows the delay per retry (values < 1 mean 2).
	Multiplier float64
	// Jitter spreads each delay uniformly over [d·(1−J), d·(1+J)] so
	// retrying tasks don't synchronize; 0 disables, values are clamped
	// to [0, 1).
	Jitter float64
}

// normalize fills defaults so arithmetic below is total.
func (c Class) normalize() Class {
	if c.MaxAttempts < 1 {
		c.MaxAttempts = 1
	}
	if c.Multiplier < 1 {
		c.Multiplier = 2
	}
	if c.BaseDelay < 0 {
		c.BaseDelay = 0
	}
	if c.Jitter < 0 {
		c.Jitter = 0
	}
	if c.Jitter >= 1 {
		c.Jitter = 0.999
	}
	return c
}

// backoff computes the delay before attempt+1 (attempt is 1-based: the
// attempt that just failed). rnd is a uniform [0,1) sample.
func (c Class) backoff(attempt int, rnd float64) time.Duration {
	d := float64(c.BaseDelay) * math.Pow(c.Multiplier, float64(attempt-1))
	if c.MaxDelay > 0 && d > float64(c.MaxDelay) {
		d = float64(c.MaxDelay)
	}
	if c.Jitter > 0 {
		d *= 1 - c.Jitter + 2*c.Jitter*rnd
		// Jitter may push past the cap; the cap is a hard bound.
		if c.MaxDelay > 0 && d > float64(c.MaxDelay) {
			d = float64(c.MaxDelay)
		}
	}
	return time.Duration(d)
}

// Handler is one task's body. It must honor ctx (return promptly —
// typically with ctx.Err() — once it fires), report progress through p,
// and return the task's result value (anything JSON-marshalable; it is
// exposed verbatim in the task status) or an error. A returned error is
// retried until the class's budget exhausts, unless wrapped by
// Permanent or caused by the task's own cancellation. A panic fails the
// task at once, and the worker goes on to the next.
type Handler func(ctx context.Context, p *Progress) (any, error)

// permanentError marks an error as not worth retrying.
type permanentError struct{ err error }

func (p permanentError) Error() string { return p.err.Error() }
func (p permanentError) Unwrap() error { return p.err }

// Permanent wraps an error so the runtime fails the task immediately
// instead of consuming the remaining retry budget (a validation error
// will not pass on attempt three).
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return permanentError{err}
}

// IsPermanent reports whether err (or anything it wraps) was marked by
// Permanent.
func IsPermanent(err error) bool {
	var p permanentError
	return errors.As(err, &p)
}

// Clock abstracts time so backoff schedules are testable. Sleep must
// return early with ctx.Err() when the context fires.
type Clock interface {
	Now() time.Time
	Sleep(ctx context.Context, d time.Duration) error
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Task is the runtime's internal record of one submitted job. All
// mutable fields are guarded by mu; external observers only ever see
// Snapshot copies.
type Task struct {
	id    string
	class Class
	fn    Handler

	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	state     State
	attempts  int
	done      int64
	total     int64
	lastError string
	result    any
	created   time.Time
	started   time.Time
	finished  time.Time
	beat      time.Time
	canceling bool // Cancel was called; decides canceled-vs-failed at exit

	// retired is set once the task is terminal: retire may forget it.
	// Guarded by the runtime's mu, not by mu.
	retired bool
}

// Snapshot is the externally visible, immutable copy of a task's
// status — the /api/v1/tasks wire shape.
type Snapshot struct {
	ID          string    `json:"id"`
	Kind        string    `json:"kind"`
	State       string    `json:"state"`
	Attempts    int       `json:"attempts"`
	MaxAttempts int       `json:"max_attempts"`
	Done        int64     `json:"done"`
	Total       int64     `json:"total"`
	LastError   string    `json:"last_error,omitempty"`
	Result      any       `json:"result,omitempty"`
	Created     time.Time `json:"created"`
	Started     time.Time `json:"started,omitzero"`
	Finished    time.Time `json:"finished,omitzero"`
	Heartbeat   time.Time `json:"heartbeat,omitzero"`
}

// TerminalState reports whether the snapshot captured the task in a
// terminal state — the string-side mirror of State.Terminal for callers
// holding only the wire form.
func (s Snapshot) TerminalState() bool {
	switch s.State {
	case Succeeded.String(), Failed.String(), Canceled.String():
		return true
	}
	return false
}

func (t *Task) snapshotLocked() Snapshot {
	return Snapshot{
		ID:          t.id,
		Kind:        t.class.Kind,
		State:       t.state.String(),
		Attempts:    t.attempts,
		MaxAttempts: t.class.MaxAttempts,
		Done:        t.done,
		Total:       t.total,
		LastError:   t.lastError,
		Result:      t.result,
		Created:     t.created,
		Started:     t.started,
		Finished:    t.finished,
		Heartbeat:   t.beat,
	}
}

func (t *Task) snapshot() Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snapshotLocked()
}

// Progress is the handler's heartbeat channel: item counts and
// non-terminal errors land in the task status as they happen, so an
// operator polling GET /api/v1/tasks/{id} watches the job move.
type Progress struct {
	t  *Task
	rt *Runtime
}

// Set publishes absolute progress (items done out of total) and beats
// the heartbeat.
func (p *Progress) Set(done, total int64) {
	p.t.mu.Lock()
	p.t.done, p.t.total = done, total
	p.t.beat = p.rt.clock.Now()
	p.t.mu.Unlock()
}

// Add advances the done counter by n and beats the heartbeat.
func (p *Progress) Add(n int64) {
	p.t.mu.Lock()
	p.t.done += n
	p.t.beat = p.rt.clock.Now()
	p.t.mu.Unlock()
}

// Note records a non-terminal error (e.g. one failed item of a bulk
// ingest) in the task status without failing the task.
func (p *Progress) Note(err error) {
	if err == nil {
		return
	}
	p.t.mu.Lock()
	p.t.lastError = err.Error()
	p.t.beat = p.rt.clock.Now()
	p.t.mu.Unlock()
}

// Sentinel errors of the runtime API.
var (
	// ErrUnknownTask marks lookups/cancels of task ids the runtime has
	// never issued, or issued and since forgotten (see retainTerminal).
	ErrUnknownTask = errors.New("tasks: unknown task")
	// ErrQueueFull marks a Submit rejected because the queue is at
	// capacity — backpressure, not data loss (the caller still owns the
	// work).
	ErrQueueFull = errors.New("tasks: queue full")
	// ErrDraining marks a Submit after Drain began.
	ErrDraining = errors.New("tasks: runtime draining")
)

// Stats is a snapshot of the runtime's monotonic counters and current
// gauges.
type Stats struct {
	Submitted int64 `json:"submitted_total"`
	Started   int64 `json:"started_total"`
	Retries   int64 `json:"retries_total"`
	Succeeded int64 `json:"succeeded_total"`
	Failed    int64 `json:"failed_total"`
	Canceled  int64 `json:"canceled_total"`
	Running   int64 `json:"running"`
	Queued    int64 `json:"queued"`
}

// retainTerminal is how many finished tasks the directory keeps, newest
// first by submission, for GET /api/v1/tasks[/{id}] — each with its result,
// which for a bulk ingest holds up to a hundred error strings. A client
// polls a task within seconds of submitting it and the queue admits at most
// a few dozen at a time, so a thousand finished tasks is hours of history;
// without a bound the directory grows for the life of the process. Like the
// queue's capacity, a size nobody has needed to set.
const retainTerminal = 1024

// Runtime owns the worker pool, the queue and the task directory.
type Runtime struct {
	clock Clock

	rngMu sync.Mutex
	rng   *rand.Rand

	mu       sync.Mutex
	tasks    map[string]*Task
	order    []string // submission order; List serves newest-first
	terminal int      // tasks in the directory that have finished (Task.retired)
	queue    chan *Task
	draining bool
	seq      uint64

	wg sync.WaitGroup

	submitted atomic.Int64 //provlint:counter
	started   atomic.Int64 //provlint:counter
	retries   atomic.Int64 //provlint:counter
	succeeded atomic.Int64 //provlint:counter
	failed    atomic.Int64 //provlint:counter
	canceled  atomic.Int64 //provlint:counter
	running   atomic.Int64

	observe   atomic.Pointer[ObserveFunc]
	traceHook atomic.Pointer[TraceHook]
}

// ObserveFunc receives one terminal task's class kind, time spent
// queued, and attempt-loop run time. The signature mirrors the metrics
// registry's ObserveTask so the packages stay decoupled.
type ObserveFunc func(kind string, queueWait, run time.Duration)

// TraceHook wraps one task attempt in a trace: it may return a derived
// context carrying a root span and a finish func called when the
// attempt returns. Mirrors the tracer's StartRoot.
type TraceHook func(ctx context.Context, name string) (context.Context, func())

// SetObserve installs the terminal-task observer. Pass nil to remove.
// Safe to call while workers run.
func (rt *Runtime) SetObserve(fn ObserveFunc) {
	if fn == nil {
		rt.observe.Store(nil)
		return
	}
	rt.observe.Store(&fn)
}

// SetTraceHook installs the per-attempt trace hook. Pass nil to remove.
func (rt *Runtime) SetTraceHook(fn TraceHook) {
	if fn == nil {
		rt.traceHook.Store(nil)
		return
	}
	rt.traceHook.Store(&fn)
}

// Draining reports whether Drain has begun — used by readiness checks.
func (rt *Runtime) Draining() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.draining
}

// New starts a runtime with the given worker count and queue capacity
// (both forced to at least 1).
func New(workers, queueCap int) *Runtime {
	return NewWithClock(workers, queueCap, realClock{}, time.Now().UnixNano())
}

// NewWithClock is New with an injected clock and jitter seed — the
// deterministic-test constructor.
func NewWithClock(workers, queueCap int, c Clock, seed int64) *Runtime {
	if workers < 1 {
		workers = 1
	}
	if queueCap < 1 {
		queueCap = 1
	}
	rt := &Runtime{
		clock: c,
		rng:   rand.New(rand.NewSource(seed)),
		tasks: make(map[string]*Task),
		queue: make(chan *Task, queueCap),
	}
	rt.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go rt.worker()
	}
	return rt
}

// Submit enqueues a task and returns its id. The queue is bounded:
// a full queue rejects with ErrQueueFull rather than blocking the
// caller (typically an HTTP handler) or growing without limit.
func (rt *Runtime) Submit(class Class, fn Handler) (string, error) {
	class = class.normalize()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.draining {
		return "", ErrDraining
	}
	rt.seq++
	ctx, cancel := context.WithCancel(context.Background())
	t := &Task{
		id:      fmt.Sprintf("t%06d", rt.seq),
		class:   class,
		fn:      fn,
		ctx:     ctx,
		cancel:  cancel,
		state:   Pending,
		created: rt.clock.Now(),
	}
	select {
	case rt.queue <- t:
	default:
		cancel()
		rt.seq-- // id never issued
		return "", fmt.Errorf("%w (capacity %d)", ErrQueueFull, cap(rt.queue))
	}
	rt.tasks[t.id] = t
	rt.order = append(rt.order, t.id)
	rt.submitted.Add(1)
	return t.id, nil
}

// Get returns the status snapshot of a task.
func (rt *Runtime) Get(id string) (Snapshot, error) {
	rt.mu.Lock()
	t := rt.tasks[id]
	rt.mu.Unlock()
	if t == nil {
		return Snapshot{}, fmt.Errorf("%w: %q", ErrUnknownTask, id)
	}
	return t.snapshot(), nil
}

// List returns task snapshots newest-first, windowed to
// [offset, offset+limit) (limit 0 = unlimited), plus the total count.
func (rt *Runtime) List(limit, offset int) ([]Snapshot, int) {
	rt.mu.Lock()
	total := len(rt.order)
	var ts []*Task
	for i := total - 1 - offset; i >= 0 && (limit <= 0 || len(ts) < limit); i-- {
		ts = append(ts, rt.tasks[rt.order[i]])
	}
	rt.mu.Unlock()
	out := make([]Snapshot, len(ts))
	for i, t := range ts {
		out[i] = t.snapshot()
	}
	return out, total
}

// retire records that t has reached a terminal state and forgets the
// oldest finished tasks beyond retainTerminal. A task that has not finished
// is never forgotten, however old.
func (rt *Runtime) retire(t *Task) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	t.retired = true
	if rt.terminal < retainTerminal {
		rt.terminal++
		return
	}
	// One over: forget the oldest finished task (t itself, if it is that).
	i := slices.IndexFunc(rt.order, func(id string) bool { return rt.tasks[id].retired })
	delete(rt.tasks, rt.order[i])
	rt.order = slices.Delete(rt.order, i, i+1)
}

// Cancel requests cancellation of a task: a pending task is terminally
// canceled in place (the worker skips it), a running one has its
// context fired and transitions when the handler returns. Canceling a
// terminal task is a no-op. The returned snapshot is the post-cancel
// status.
func (rt *Runtime) Cancel(id string) (Snapshot, error) {
	rt.mu.Lock()
	t := rt.tasks[id]
	rt.mu.Unlock()
	if t == nil {
		return Snapshot{}, fmt.Errorf("%w: %q", ErrUnknownTask, id)
	}
	t.mu.Lock()
	wasPending := t.state == Pending
	switch t.state {
	case Pending:
		t.state = Canceled
		t.finished = rt.clock.Now()
		rt.canceled.Add(1)
	case Running:
		t.canceling = true
	}
	snap := t.snapshotLocked()
	t.mu.Unlock()
	t.cancel()
	if wasPending {
		rt.retire(t)
	}
	return snap, nil
}

// CancelAll fires cancellation for every non-terminal task (used by
// deadline-bounded drains).
func (rt *Runtime) CancelAll() {
	rt.mu.Lock()
	ts := make([]*Task, 0, len(rt.tasks))
	for _, t := range rt.tasks {
		ts = append(ts, t)
	}
	rt.mu.Unlock()
	sort.Slice(ts, func(i, j int) bool { return ts[i].id < ts[j].id })
	for _, t := range ts {
		t.mu.Lock()
		terminal, wasPending := t.state.Terminal(), t.state == Pending
		if wasPending {
			t.state = Canceled
			t.finished = rt.clock.Now()
			rt.canceled.Add(1)
		} else if t.state == Running {
			t.canceling = true
		}
		t.mu.Unlock()
		if !terminal {
			t.cancel()
		}
		if wasPending {
			rt.retire(t)
		}
	}
}

// Drain stops intake and waits for queued + running tasks to finish.
// If ctx fires first, every remaining task is canceled and Drain waits
// for the workers to observe the cancellation and exit, returning
// ctx's error. Safe to call once; Submit fails with ErrDraining from
// the moment it starts.
func (rt *Runtime) Drain(ctx context.Context) error {
	rt.mu.Lock()
	if !rt.draining {
		rt.draining = true
		close(rt.queue)
	}
	rt.mu.Unlock()
	done := make(chan struct{})
	go func() {
		rt.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		rt.CancelAll()
		<-done // handlers honor ctx; wait for them to unwind
		return ctx.Err()
	}
}

// Stats snapshots the runtime counters.
func (rt *Runtime) Stats() Stats {
	rt.mu.Lock()
	queued := int64(len(rt.queue))
	rt.mu.Unlock()
	return Stats{
		Submitted: rt.submitted.Load(),
		Started:   rt.started.Load(),
		Retries:   rt.retries.Load(),
		Succeeded: rt.succeeded.Load(),
		Failed:    rt.failed.Load(),
		Canceled:  rt.canceled.Load(),
		Running:   rt.running.Load(),
		Queued:    queued,
	}
}

func (rt *Runtime) worker() {
	defer rt.wg.Done()
	for t := range rt.queue {
		rt.run(t)
	}
}

// uniform returns one [0,1) jitter sample from the runtime's seeded
// source.
func (rt *Runtime) uniform() float64 {
	rt.rngMu.Lock()
	defer rt.rngMu.Unlock()
	return rt.rng.Float64()
}

// run executes one task's full attempt loop on the calling worker.
func (rt *Runtime) run(t *Task) {
	t.mu.Lock()
	if t.state != Pending { // canceled while queued
		t.mu.Unlock()
		return
	}
	t.state = Running
	t.started = rt.clock.Now()
	t.beat = t.started
	t.mu.Unlock()
	rt.started.Add(1)
	rt.running.Add(1)
	defer rt.running.Add(-1)

	p := &Progress{t: t, rt: rt}
	for attempt := 1; ; attempt++ {
		t.mu.Lock()
		t.attempts = attempt
		t.mu.Unlock()
		if t.ctx.Err() != nil {
			rt.finish(t, Canceled, t.ctx.Err(), nil)
			return
		}
		actx, endSpan := t.ctx, func() {}
		if hp := rt.traceHook.Load(); hp != nil {
			actx, endSpan = (*hp)(t.ctx, "task."+t.class.Kind)
		}
		result, err := runHandler(actx, t, p)
		endSpan()
		if err == nil {
			rt.finish(t, Succeeded, nil, result)
			return
		}
		if t.ctx.Err() != nil {
			// The task was canceled (or force-stopped) mid-attempt; the
			// handler's error is the cancellation surfacing, not a failure.
			rt.finish(t, Canceled, err, nil)
			return
		}
		t.mu.Lock()
		t.lastError = err.Error()
		t.beat = rt.clock.Now()
		t.mu.Unlock()
		if IsPermanent(err) || attempt >= t.class.MaxAttempts {
			rt.finish(t, Failed, err, nil)
			return
		}
		rt.retries.Add(1)
		if serr := rt.clock.Sleep(t.ctx, t.class.backoff(attempt, rt.uniform())); serr != nil {
			rt.finish(t, Canceled, serr, nil)
			return
		}
	}
}

// runHandler runs t's handler once. A panic in it fails the task, not the
// process: it returns as a permanent error naming the panic, whose stack
// is logged.
func runHandler(ctx context.Context, t *Task, p *Progress) (result any, err error) {
	defer func() {
		if v := recover(); v != nil {
			slog.Error("task panicked", "task", t.id, "kind", t.class.Kind, "panic", v, "stack", string(debug.Stack()))
			result, err = nil, Permanent(fmt.Errorf("tasks: %s panicked: %v", t.class.Kind, v))
		}
	}()
	return t.fn(ctx, p)
}

// finish records a terminal transition.
func (rt *Runtime) finish(t *Task, s State, err error, result any) {
	t.mu.Lock()
	t.state = s
	t.finished = rt.clock.Now()
	t.result = result
	if err != nil {
		t.lastError = err.Error()
	}
	kind := t.class.Kind
	created, started, finished := t.created, t.started, t.finished
	t.mu.Unlock()
	t.cancel() // release the context's resources
	switch s {
	case Succeeded:
		rt.succeeded.Add(1)
	case Failed:
		rt.failed.Add(1)
	case Canceled:
		rt.canceled.Add(1)
	}
	// Tasks canceled while still queued never started; they have no
	// queue-wait or run time worth recording.
	if op := rt.observe.Load(); op != nil && !started.IsZero() {
		(*op)(kind, started.Sub(created), finished.Sub(started))
	}
	rt.retire(t)
}
