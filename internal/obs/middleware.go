package obs

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"runtime/debug"
	"sync"
	"time"
)

// Observer bundles the pieces the middleware threads through a request:
// the metrics registry, the process logger, and (optionally) the
// tracer. Any field may be nil except Metrics.
type Observer struct {
	Metrics *Metrics
	Logger  *slog.Logger
	Tracer  *Tracer

	pool sync.Pool
}

// NewObserver wires an Observer; tracer may be nil to disable tracing.
func NewObserver(m *Metrics, logger *slog.Logger, tracer *Tracer) *Observer {
	if m == nil {
		m = NewMetrics()
	}
	if logger == nil {
		logger = Discard
	}
	o := &Observer{Metrics: m, Logger: logger, Tracer: tracer}
	o.pool.New = func() any { return &Recorder{} }
	return o
}

// Recorder wraps the ResponseWriter to capture status and size, and
// carries the request id and principal so downstream code reaches them
// by type-asserting the writer — no context allocation. Recorders are
// pooled; handlers must not retain them past the request.
type Recorder struct {
	http.ResponseWriter
	o         *Observer
	status    int
	bytes     int64
	rid       string
	generated bool
	principal string
	req       *http.Request
	trace     *Trace
	start     time.Time
}

// WriteHeader captures the status code.
func (rec *Recorder) WriteHeader(code int) {
	if rec.status == 0 {
		rec.status = code
	}
	rec.ResponseWriter.WriteHeader(code)
}

// Write counts response bytes and defaults the status to 200.
func (rec *Recorder) Write(p []byte) (int, error) {
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	n, err := rec.ResponseWriter.Write(p)
	rec.bytes += int64(n)
	return n, err
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (rec *Recorder) Unwrap() http.ResponseWriter { return rec.ResponseWriter }

// recorderOf finds the middleware's Recorder under w, walking Unwrap
// chains so layers stacked above it (the server's audit writer, a
// future compression wrapper) stay transparent. Nil when w never came
// through the middleware. The walk is assertion-only: no allocation.
func recorderOf(w http.ResponseWriter) *Recorder {
	for w != nil {
		if rec, ok := w.(*Recorder); ok {
			return rec
		}
		u, ok := w.(interface{ Unwrap() http.ResponseWriter })
		if !ok {
			return nil
		}
		w = u.Unwrap()
	}
	return nil
}

// RequestID returns the request id the middleware assigned to this
// request, or "" when w did not come through the middleware.
func RequestID(w http.ResponseWriter) string {
	if rec := recorderOf(w); rec != nil {
		return rec.rid
	}
	return ""
}

// SetPrincipal records the authenticated principal on the request's
// recorder so completion logs and traces can name it. No-op for
// writers outside the middleware.
func SetPrincipal(w http.ResponseWriter, name string) {
	if rec := recorderOf(w); rec != nil {
		rec.principal = name
	}
}

// Principal returns the principal recorded by SetPrincipal, if any.
func Principal(w http.ResponseWriter) string {
	if rec := recorderOf(w); rec != nil {
		return rec.principal
	}
	return ""
}

// validRequestID accepts client-supplied ids that are safe to echo into
// logs and headers: 1–64 bytes of [0-9A-Za-z._-]. Anything else is
// replaced, which doubles as log-injection defense.
func validRequestID(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

const hexDigits = "0123456789abcdef"

// newRequestID returns a 32-hex-char random id. math/rand/v2's global
// generator is seeded and lock-free; ids need uniqueness for
// correlation, not unpredictability.
func newRequestID() string {
	var buf [32]byte
	hi, lo := rand.Uint64(), rand.Uint64()
	for i := 0; i < 16; i++ {
		buf[i] = hexDigits[(hi>>(60-4*i))&0xf]
		buf[16+i] = hexDigits[(lo>>(60-4*i))&0xf]
	}
	return string(buf[:])
}

// Middleware returns the observability layer: request-id handling,
// latency/size/in-flight accounting keyed by the mux's matched route
// pattern, sampled tracing, slow-request logging, and panic recovery.
//
// Allocation budget on the warm path: an unsampled request with a
// client-supplied X-Request-Id adds zero heap allocations; with a
// generated id it adds two (the id string and its response-header
// slot). Sampling adds the trace, one context value, and a shallow
// request clone — paid only by the 1-in-N sampled requests.
func (o *Observer) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := o.pool.Get().(*Recorder)
		rec.ResponseWriter = w
		rec.o = o
		rec.status = 0
		rec.bytes = 0
		rec.principal = ""
		rec.trace = nil
		rec.generated = false
		rec.start = time.Now()

		rec.rid = r.Header.Get("X-Request-Id")
		if !validRequestID(rec.rid) {
			rec.rid = newRequestID()
			rec.generated = true
			// Echo only ids we minted: the client already knows its own
			// id, and skipping the echo keeps the client-supplied path
			// allocation-free.
			w.Header().Set("X-Request-Id", rec.rid)
		}

		if o.Tracer != nil && o.Tracer.sample() {
			ctx, t := o.Tracer.startTrace(r.Context(), rec.rid, r.URL.Path)
			rec.trace = t
			r = r.WithContext(ctx)
		}
		rec.req = r

		o.Metrics.inflight.Add(1)
		defer rec.finish()
		next.ServeHTTP(rec, r)
	})
}

// finish is the deferred completion path: panic recovery, metrics,
// slow-request logging, and trace commit. It is a named method (not a
// closure) so the defer in Middleware stays open-coded and
// allocation-free.
func (rec *Recorder) finish() {
	o := rec.o
	o.Metrics.inflight.Add(-1)

	if p := recover(); p != nil {
		if p == http.ErrAbortHandler {
			rec.reset()
			panic(http.ErrAbortHandler)
		}
		o.Metrics.panics.Add(1)
		o.Logger.Error("handler panic",
			"request_id", rec.rid,
			"method", rec.req.Method,
			"path", rec.req.URL.Path,
			"panic", fmt.Sprint(p),
			"stack", string(debug.Stack()))
		if rec.status == 0 {
			rec.Header().Set("Content-Type", "application/json")
			rec.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(rec).Encode(map[string]string{
				"error":      "internal server error",
				"request_id": rec.rid,
			})
		}
	}

	dur := time.Since(rec.start)
	status := rec.status
	if status == 0 {
		status = http.StatusOK
	}
	// Go 1.22+ mux sets Pattern in place on the request it matched, so
	// after ServeHTTP the matched route is readable here; unmatched
	// requests (404 from the mux) group under one bucket.
	route := rec.req.Pattern
	if route == "" {
		route = "unmatched"
	}
	o.Metrics.observe(route, status, dur, rec.bytes)

	slowNs := int64(0)
	if o.Tracer != nil {
		slowNs = o.Tracer.slowNanos.Load()
	}
	if slowNs > 0 && int64(dur) >= slowNs {
		o.Metrics.slow.Add(1)
		o.Logger.Warn("slow request",
			"request_id", rec.rid,
			"method", rec.req.Method,
			"route", route,
			"principal", rec.principal,
			"status", status,
			"duration", dur,
			"bytes", rec.bytes)
	}
	if rec.trace != nil {
		o.Tracer.finish(rec.trace, rec.req.Method+" "+rec.req.URL.Path, status, dur)
	}

	rec.reset()
}

// reset clears references and returns the recorder to the pool.
func (rec *Recorder) reset() {
	o := rec.o
	rec.ResponseWriter = nil
	rec.req = nil
	rec.trace = nil
	rec.o = nil
	rec.rid = ""
	rec.principal = ""
	o.pool.Put(rec)
}
