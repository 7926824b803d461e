// Package tasks is the in-process asynchronous task runtime behind the
// repository's heavy operations — bulk ingest, which on the request path
// would hold its connection and degrade every concurrent reader.
//
// A bounded worker pool pulls tasks off a bounded queue; each task runs
// its handler exactly once through a per-task state machine
//
//	pending → running → succeeded | failed | canceled
//
// with heartbeat-based progress reporting (items done / total, last
// error, last heartbeat time) and context-threaded cancellation: the
// handler receives a context that fires when the task is canceled or
// the runtime is force-stopped, and a cancel mid-run is an ordinary
// early return, never a goroutine kill — so a canceled bulk ingest
// leaves the repository in whatever consistent prefix state the
// handler had reached. A handler that panics fails its own task only.
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
	// Running: a worker is executing the handler.
	Running
	// Succeeded: the handler returned nil. Terminal.
	Succeeded
	// Failed: the handler returned an error or panicked; LastError holds
	// it. Terminal.
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

// Handler is one task's body. It must honor ctx (return promptly —
// typically with ctx.Err() — once it fires), report progress through p,
// and return the task's result value (anything JSON-marshalable; it is
// exposed verbatim in the task status) or an error, which fails the task
// unless the task's own cancellation caused it. A panic fails the task,
// and the worker goes on to the next.
type Handler func(ctx context.Context, p *Progress) (any, error)

// Task is the runtime's internal record of one submitted job. All
// mutable fields are guarded by mu; external observers only ever see
// Snapshot copies.
type Task struct {
	id   string
	kind string
	fn   Handler

	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	state     State
	done      int64
	total     int64
	lastError string
	result    any
	created   time.Time
	started   time.Time
	finished  time.Time
	beat      time.Time

	// retired is set once the task is terminal: retire may forget it.
	// Guarded by the runtime's mu, not by mu.
	retired bool
}

// Snapshot is the externally visible, immutable copy of a task's
// status — the /api/v1/tasks wire shape.
type Snapshot struct {
	ID        string    `json:"id"`
	Kind      string    `json:"kind"`
	State     string    `json:"state"`
	Done      int64     `json:"done"`
	Total     int64     `json:"total"`
	LastError string    `json:"last_error,omitempty"`
	Result    any       `json:"result,omitempty"`
	Created   time.Time `json:"created"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
	Heartbeat time.Time `json:"heartbeat,omitzero"`
}

func (t *Task) snapshotLocked() Snapshot {
	return Snapshot{
		ID:        t.id,
		Kind:      t.kind,
		State:     t.state.String(),
		Done:      t.done,
		Total:     t.total,
		LastError: t.lastError,
		Result:    t.result,
		Created:   t.created,
		Started:   t.started,
		Finished:  t.finished,
		Heartbeat: t.beat,
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
	t *Task
}

// Set publishes absolute progress (items done out of total) and beats
// the heartbeat.
func (p *Progress) Set(done, total int64) {
	p.t.mu.Lock()
	p.t.done, p.t.total = done, total
	p.t.beat = time.Now()
	p.t.mu.Unlock()
}

// Add advances the done counter by n and beats the heartbeat.
func (p *Progress) Add(n int64) {
	p.t.mu.Lock()
	p.t.done += n
	p.t.beat = time.Now()
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
	p.t.beat = time.Now()
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
	succeeded atomic.Int64 //provlint:counter
	failed    atomic.Int64 //provlint:counter
	canceled  atomic.Int64 //provlint:counter
	running   atomic.Int64

	observe   atomic.Pointer[ObserveFunc]
	traceHook atomic.Pointer[TraceHook]
}

// ObserveFunc receives one terminal task's kind, time spent queued, and
// run time. The signature mirrors the metrics registry's ObserveTask so
// the packages stay decoupled.
type ObserveFunc func(kind string, queueWait, run time.Duration)

// TraceHook wraps one task's run in a trace: it may return a derived
// context carrying a root span and a finish func called when the
// handler returns. Mirrors the tracer's StartRoot.
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

// SetTraceHook installs the per-task trace hook. Pass nil to remove.
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
	if workers < 1 {
		workers = 1
	}
	if queueCap < 1 {
		queueCap = 1
	}
	rt := &Runtime{
		tasks: make(map[string]*Task),
		queue: make(chan *Task, queueCap),
	}
	rt.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go rt.worker()
	}
	return rt
}

// Submit enqueues a task of the given kind ("bulk-ingest", ...; it is
// reported in snapshots and metrics labels) and returns its id. The queue
// is bounded: a full queue rejects with ErrQueueFull rather than blocking
// the caller (typically an HTTP handler) or growing without limit.
func (rt *Runtime) Submit(kind string, fn Handler) (string, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.draining {
		return "", ErrDraining
	}
	rt.seq++
	ctx, cancel := context.WithCancel(context.Background())
	t := &Task{
		id:      fmt.Sprintf("t%06d", rt.seq),
		kind:    kind,
		fn:      fn,
		ctx:     ctx,
		cancel:  cancel,
		state:   Pending,
		created: time.Now(),
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
	if wasPending {
		t.state = Canceled
		t.finished = time.Now()
		rt.canceled.Add(1)
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
			t.finished = time.Now()
			rt.canceled.Add(1)
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

// run executes one task's handler, once, on the calling worker.
func (rt *Runtime) run(t *Task) {
	t.mu.Lock()
	if t.state != Pending { // canceled while queued
		t.mu.Unlock()
		return
	}
	t.state = Running
	t.started = time.Now()
	t.beat = t.started
	t.mu.Unlock()
	rt.started.Add(1)
	rt.running.Add(1)
	defer rt.running.Add(-1)

	ctx, endSpan := t.ctx, func() {}
	if hp := rt.traceHook.Load(); hp != nil {
		ctx, endSpan = (*hp)(t.ctx, "task."+t.kind)
	}
	result, err := runHandler(ctx, t, &Progress{t: t})
	endSpan()
	switch {
	case err == nil:
		rt.finish(t, Succeeded, nil, result)
	case t.ctx.Err() != nil:
		// The task was canceled (or force-stopped) mid-run; the handler's
		// error is the cancellation surfacing, not a failure.
		rt.finish(t, Canceled, err, nil)
	default:
		rt.finish(t, Failed, err, nil)
	}
}

// runHandler runs t's handler. A panic in it fails the task, not the
// process: it returns as an error naming the panic, whose stack is logged.
func runHandler(ctx context.Context, t *Task, p *Progress) (result any, err error) {
	defer func() {
		if v := recover(); v != nil {
			slog.Error("task panicked", "task", t.id, "kind", t.kind, "panic", v, "stack", string(debug.Stack()))
			result, err = nil, fmt.Errorf("tasks: %s panicked: %v", t.kind, v)
		}
	}()
	return t.fn(ctx, p)
}

// finish records a terminal transition.
func (rt *Runtime) finish(t *Task, s State, err error, result any) {
	t.mu.Lock()
	t.state = s
	t.finished = time.Now()
	t.result = result
	if err != nil {
		t.lastError = err.Error()
	}
	kind := t.kind
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
