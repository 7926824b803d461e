package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Trace collects the spans of one sampled request (or one traced
// background task). Spans append under a plain mutex — a sampled
// request records a handful of spans, so contention is negligible, and
// unsampled requests never construct a Trace at all.
type Trace struct {
	ID    string
	Name  string
	Start time.Time

	mu      sync.Mutex
	spans   []spanRec
	dropped int

	// Set by Finish, read by Recent — the trace is out of the ring's
	// reach only after Finish, so no lock is needed for these.
	Dur    time.Duration
	Slow   bool
	Status int
}

// spanRec is one completed-or-open span inside a trace.
type spanRec struct {
	name   string
	parent int32 // index into spans, -1 for roots
	start  time.Time
	dur    time.Duration // 0 while open
	done   bool
}

// maxSpans caps the per-trace span count so a pathological fan-out
// (thousands of shards) can't balloon a single trace; overflow is
// counted and reported in the view.
const maxSpans = 128

type traceCtxKey struct{}
type spanCtxKey struct{}

// Span is a handle to one started span. The zero Span is inert: End is
// a no-op and Active reports false, so instrumented code never branches
// on whether tracing is on.
type Span struct {
	t   *Trace
	idx int32
}

// Active reports whether this span is actually recording.
func (s Span) Active() bool { return s.t != nil }

// End completes the span, stamping its duration.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	r := &s.t.spans[s.idx]
	if !r.done {
		r.done = true
		r.dur = time.Since(r.start)
	}
	s.t.mu.Unlock()
}

// StartSpan opens a span under the sampled trace carried by ctx. When
// ctx has no trace this is a no-op returning (ctx, Span{}) — zero
// allocation — so call sites thread it unconditionally. The returned
// context carries the new span as parent for nested StartSpan calls and
// is safe to hand to fan-out goroutines: span starts serialize on the
// trace's mutex.
func StartSpan(ctx context.Context, name string) (context.Context, Span) {
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	if t == nil {
		return ctx, Span{}
	}
	parent := int32(-1)
	if p, ok := ctx.Value(spanCtxKey{}).(int32); ok {
		parent = p
	}
	t.mu.Lock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		t.mu.Unlock()
		return ctx, Span{}
	}
	idx := int32(len(t.spans))
	t.spans = append(t.spans, spanRec{name: name, parent: parent, start: time.Now()})
	t.mu.Unlock()
	return context.WithValue(ctx, spanCtxKey{}, idx), Span{t: t, idx: idx}
}

// Tracer samples requests into Traces and keeps the most recent
// completed ones in a fixed ring.
type Tracer struct {
	sampleEvery atomic.Int64 // 0 = off, 1 = every request, N = 1 in N
	slowNanos   atomic.Int64
	counter     atomic.Int64
	sampled     atomic.Int64
	slowCount   atomic.Int64

	mu   sync.Mutex
	ring []*Trace
	next int
}

// NewTracer builds a tracer holding the last ringSize completed traces,
// sampling one request in sampleEvery (0 disables sampling entirely),
// and flagging requests slower than slowThreshold.
func NewTracer(ringSize, sampleEvery int, slowThreshold time.Duration) *Tracer {
	if ringSize <= 0 {
		ringSize = 64
	}
	t := &Tracer{ring: make([]*Trace, 0, ringSize)}
	t.sampleEvery.Store(int64(sampleEvery))
	t.slowNanos.Store(int64(slowThreshold))
	return t
}

// SlowThreshold returns the configured slow-request threshold.
func (tr *Tracer) SlowThreshold() time.Duration {
	return time.Duration(tr.slowNanos.Load())
}

// sample decides, with one atomic increment, whether this request is
// traced.
func (tr *Tracer) sample() bool {
	n := tr.sampleEvery.Load()
	if n <= 0 {
		return false
	}
	return tr.counter.Add(1)%n == 0
}

// StartRequest begins a trace for a sampled request and returns a ctx
// carrying it. Callers must only use it after sample() said yes (the
// middleware fuses the two; StartRoot is the standalone form).
func (tr *Tracer) startTrace(ctx context.Context, id, name string) (context.Context, *Trace) {
	t := &Trace{ID: id, Name: name, Start: time.Now()}
	tr.sampled.Add(1)
	return context.WithValue(ctx, traceCtxKey{}, t), t
}

// Finish completes a trace and commits it to the ring.
func (tr *Tracer) finish(t *Trace, name string, status int, dur time.Duration) {
	t.Name = name
	t.Status = status
	t.Dur = dur
	t.Slow = int64(dur) >= tr.slowNanos.Load()
	if t.Slow {
		tr.slowCount.Add(1)
	}
	tr.mu.Lock()
	if len(tr.ring) < cap(tr.ring) {
		tr.ring = append(tr.ring, t)
	} else {
		tr.ring[tr.next] = t
		tr.next = (tr.next + 1) % cap(tr.ring)
	}
	tr.mu.Unlock()
}

// StartRoot opens a sampled root trace around a non-HTTP unit of work
// (a background task). The returned finish func commits the
// trace; when the sampler says no it returns (ctx, no-op). The
// signature matches the task runtime's trace hook so the packages stay
// decoupled.
func (tr *Tracer) StartRoot(ctx context.Context, name string) (context.Context, func()) {
	if !tr.sample() {
		return ctx, func() {}
	}
	ctx, t := tr.startTrace(ctx, "", name)
	ctx, sp := StartSpan(ctx, name)
	start := time.Now()
	return ctx, func() {
		sp.End()
		tr.finish(t, name, 0, time.Since(start))
	}
}

// SpanView is one span rendered for the debug endpoint, children
// nested.
type SpanView struct {
	Name     string     `json:"name"`
	StartNs  int64      `json:"start_ns"` // offset from trace start
	DurNs    int64      `json:"duration_ns"`
	Children []SpanView `json:"children,omitempty"`
}

// TraceView is one completed trace rendered for the debug endpoint.
type TraceView struct {
	ID      string     `json:"request_id,omitempty"`
	Name    string     `json:"name"`
	Status  int        `json:"status,omitempty"`
	Start   time.Time  `json:"start"`
	DurNs   int64      `json:"duration_ns"`
	Slow    bool       `json:"slow"`
	Dropped int        `json:"dropped_spans,omitempty"`
	Spans   []SpanView `json:"spans"`
}

// Recent returns the completed traces in the ring, newest first, as
// nested span trees.
func (tr *Tracer) Recent() []TraceView {
	tr.mu.Lock()
	traces := make([]*Trace, 0, len(tr.ring))
	for i := 0; i < len(tr.ring); i++ {
		// Walk backwards from the slot most recently written.
		idx := (tr.next - 1 - i + len(tr.ring)) % len(tr.ring)
		if len(tr.ring) < cap(tr.ring) {
			// Ring not yet full: entries 0..len-1 in insertion order.
			idx = len(tr.ring) - 1 - i
		}
		traces = append(traces, tr.ring[idx])
	}
	tr.mu.Unlock()

	out := make([]TraceView, 0, len(traces))
	for _, t := range traces {
		out = append(out, t.view())
	}
	return out
}

// view renders the trace's flat span list as a tree.
func (t *Trace) view() TraceView {
	t.mu.Lock()
	spans := make([]spanRec, len(t.spans))
	copy(spans, t.spans)
	dropped := t.dropped
	t.mu.Unlock()

	v := TraceView{
		ID:      t.ID,
		Name:    t.Name,
		Status:  t.Status,
		Start:   t.Start,
		DurNs:   int64(t.Dur),
		Slow:    t.Slow,
		Dropped: dropped,
	}
	// Build children index lists, then emit depth-first. Spans are
	// appended in start order, so a parent always precedes its children.
	kids := make([][]int32, len(spans))
	var roots []int32
	for i, s := range spans {
		if s.parent < 0 {
			roots = append(roots, int32(i))
		} else {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	var build func(i int32) SpanView
	build = func(i int32) SpanView {
		s := spans[i]
		sv := SpanView{
			Name:    s.name,
			StartNs: s.start.Sub(t.Start).Nanoseconds(),
			DurNs:   int64(s.dur),
		}
		for _, c := range kids[i] {
			sv.Children = append(sv.Children, build(c))
		}
		return sv
	}
	v.Spans = make([]SpanView, 0, len(roots))
	for _, r := range roots {
		v.Spans = append(v.Spans, build(r))
	}
	return v
}
