package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHistogramObserveAndSnapshot(t *testing.T) {
	var h Histogram
	h.Observe(200 * time.Microsecond) // bucket 0 (le 0.0005)
	h.Observe(700 * time.Microsecond) // bucket 1 (le 0.001)
	h.Observe(30 * time.Second)       // +Inf bucket
	h.Observe(-time.Second)           // clamped to 0, bucket 0

	cum, count, sum := h.snapshot()
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
	if cum[0] != 2 || cum[1] != 3 || cum[numBuckets-1] != 4 {
		t.Fatalf("cumulative = %v", cum)
	}
	for i := 1; i < numBuckets; i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("bucket %d not cumulative: %v", i, cum)
		}
	}
	want := 0.0002 + 0.0007 + 30
	if diff := sum - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sum = %v, want %v", sum, want)
	}
}

func TestMetricsExpositionValid(t *testing.T) {
	m := NewMetrics()
	m.observe("GET /api/v1/search", 200, 3*time.Millisecond, 512)
	m.observe("GET /api/v1/search", 404, time.Millisecond, 64)
	m.observe("POST /api/v1/executions", 201, 10*time.Millisecond, 128)
	m.observe("weird", 99, time.Millisecond, 0) // 0xx class
	m.ObserveTask("compact", 2*time.Millisecond, 40*time.Millisecond)
	m.panics.Add(1)

	var b bytes.Buffer
	m.WritePrometheus(&b)
	if err := ValidateExposition(b.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v\npage:\n%s", err, b.String())
	}
	page := b.String()
	for _, want := range []string{
		`provpriv_http_requests_total{route="GET /api/v1/search",status="2xx"} 1`,
		`provpriv_http_requests_total{route="weird",status="0xx"} 1`,
		`provpriv_http_response_bytes_total{route="GET /api/v1/search"} 576`,
		`provpriv_tasks_queue_wait_seconds_count{kind="compact"} 1`,
		`provpriv_http_panics_total 1`,
		`provpriv_go_goroutines`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("page missing %q", want)
		}
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"no family":      "some_metric 1\n",
		"bad name":       "# HELP 9bad x\n# TYPE 9bad counter\n9bad 1\n",
		"duplicate HELP": "# HELP a x\n# HELP a x\n# TYPE a counter\na 1\n",
		"duplicate TYPE": "# HELP a x\n# TYPE a counter\n# TYPE a counter\na 1\n",
		"bad value":      "# HELP a x\n# TYPE a counter\na pig\n",
		"non-cumulative": "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"no +Inf":        "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n",
		"count mismatch": "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 4\n",
		"missing sum":    "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_count 5\n",
		"le not sorted":  "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 0\nh_count 1\n",
		"bare histogram": "# HELP h x\n# TYPE h histogram\nh 5\n",
		"missing le":     "# HELP h x\n# TYPE h histogram\nh_bucket 5\nh_sum 1\nh_count 5\n",
	}
	for name, page := range cases {
		if err := ValidateExposition([]byte(page)); err == nil {
			t.Errorf("%s: expected error, got nil", name)
		}
	}
	good := "# HELP a x\n# TYPE a counter\na{l=\"v,with\\\"comma\"} 1\n"
	if err := ValidateExposition([]byte(good)); err != nil {
		t.Errorf("quoted-comma labels rejected: %v", err)
	}
}

func TestExpositionSeries(t *testing.T) {
	page := "# HELP a x\n# TYPE a counter\na{l=\"v\"} 3\nb 1.5\n"
	s, err := ExpositionSeries([]byte(page))
	if err != nil {
		t.Fatal(err)
	}
	if s[`a{l="v"}`] != 3 || s["b"] != 1.5 {
		t.Fatalf("series = %v", s)
	}
}

// obsServer builds an Observer-wrapped mux echoing a small body.
func obsServer(t *testing.T, tracer *Tracer, logs io.Writer) (*Observer, http.Handler) {
	t.Helper()
	if logs == nil {
		logs = io.Discard
	}
	logger := slog.New(slog.NewJSONHandler(logs, nil))
	o := NewObserver(NewMetrics(), logger, tracer)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /echo", func(w http.ResponseWriter, r *http.Request) {
		SetPrincipal(w, "alice")
		io.WriteString(w, "ok")
	})
	mux.HandleFunc("GET /boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	mux.HandleFunc("GET /traced", func(w http.ResponseWriter, r *http.Request) {
		ctx, sp := StartSpan(r.Context(), "outer")
		_, inner := StartSpan(ctx, "inner")
		time.Sleep(time.Millisecond)
		inner.End()
		sp.End()
		w.WriteHeader(http.StatusNoContent)
	})
	return o, Chain(mux, o.Middleware)
}

func TestMiddlewareRequestID(t *testing.T) {
	o, h := obsServer(t, nil, nil)

	// Generated id: echoed in the response header.
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/echo", nil))
	rid := rr.Header().Get("X-Request-Id")
	if len(rid) != 32 {
		t.Fatalf("generated id %q, want 32 hex chars", rid)
	}

	// Valid client id: propagated (visible to SetPrincipal-side code),
	// not echoed.
	rr = httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/echo", nil)
	req.Header.Set("X-Request-Id", "client-id-1")
	h.ServeHTTP(rr, req)
	if got := rr.Header().Get("X-Request-Id"); got != "" {
		t.Fatalf("client id echoed as %q, want no echo", got)
	}

	// Hostile client id: replaced.
	rr = httptest.NewRecorder()
	req = httptest.NewRequest("GET", "/echo", nil)
	req.Header.Set("X-Request-Id", "evil\nid")
	h.ServeHTTP(rr, req)
	if got := rr.Header().Get("X-Request-Id"); len(got) != 32 {
		t.Fatalf("hostile id not replaced: %q", got)
	}

	if got := o.Metrics.inflight.Load(); got != 0 {
		t.Fatalf("in-flight after completion = %d", got)
	}
	var b bytes.Buffer
	o.Metrics.WritePrometheus(&b)
	if err := ValidateExposition(b.Bytes()); err != nil {
		t.Fatalf("exposition invalid after requests: %v", err)
	}
	if !strings.Contains(b.String(), `provpriv_http_requests_total{route="GET /echo",status="2xx"} 3`) {
		t.Fatalf("route counter missing:\n%s", b.String())
	}
}

func TestMiddlewarePanicRecovery(t *testing.T) {
	var logs bytes.Buffer
	o, h := obsServer(t, nil, &logs)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/boom", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rr.Code)
	}
	var body struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("panic body not JSON: %v (%q)", err, rr.Body.String())
	}
	if body.Error == "" || len(body.RequestID) != 32 {
		t.Fatalf("panic body = %+v", body)
	}
	if o.Metrics.panics.Load() != 1 {
		t.Fatalf("panics = %d", o.Metrics.panics.Load())
	}
	if !strings.Contains(logs.String(), "handler panic") || !strings.Contains(logs.String(), body.RequestID) {
		t.Fatalf("panic log missing request id: %s", logs.String())
	}
	if o.Metrics.inflight.Load() != 0 {
		t.Fatalf("in-flight leaked after panic")
	}
}

func TestTracerSamplingAndSpanTree(t *testing.T) {
	tracer := NewTracer(8, 1, time.Nanosecond) // every request, everything slow
	var logs bytes.Buffer
	_, h := obsServer(t, tracer, &logs)

	rr := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/traced", nil)
	req.Header.Set("X-Request-Id", "trace-req-1")
	h.ServeHTTP(rr, req)

	views := tracer.Recent()
	if len(views) != 1 {
		t.Fatalf("traces = %d, want 1", len(views))
	}
	v := views[0]
	if v.ID != "trace-req-1" || v.Name != "GET /traced" || v.Status != 204 || !v.Slow {
		t.Fatalf("trace view = %+v", v)
	}
	if len(v.Spans) != 1 || v.Spans[0].Name != "outer" {
		t.Fatalf("root spans = %+v", v.Spans)
	}
	if len(v.Spans[0].Children) != 1 || v.Spans[0].Children[0].Name != "inner" {
		t.Fatalf("children = %+v", v.Spans[0].Children)
	}
	if v.Spans[0].DurNs <= 0 || v.Spans[0].Children[0].DurNs <= 0 {
		t.Fatalf("span durations not stamped: %+v", v.Spans)
	}
	if !strings.Contains(logs.String(), "slow request") {
		t.Fatalf("slow-request log missing: %s", logs.String())
	}
}

func TestTracerSampleEvery(t *testing.T) {
	tracer := NewTracer(64, 3, time.Hour)
	_, h := obsServer(t, tracer, nil)
	for i := 0; i < 9; i++ {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/echo", nil))
	}
	if got := len(tracer.Recent()); got != 3 {
		t.Fatalf("sampled %d of 9 at 1-in-3", got)
	}
	off := NewTracer(64, 0, time.Hour)
	_, h = obsServer(t, off, nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/echo", nil))
	if got := len(off.Recent()); got != 0 {
		t.Fatalf("sampleEvery=0 still traced %d", got)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tracer := NewTracer(2, 1, time.Hour)
	_, h := obsServer(t, tracer, nil)
	for _, id := range []string{"first", "second", "third"} {
		rr := httptest.NewRecorder()
		req := httptest.NewRequest("GET", "/echo", nil)
		req.Header.Set("X-Request-Id", id)
		h.ServeHTTP(rr, req)
	}
	views := tracer.Recent()
	if len(views) != 2 {
		t.Fatalf("ring size = %d", len(views))
	}
	if views[0].ID != "third" || views[1].ID != "second" {
		t.Fatalf("ring order = %s, %s (want third, second)", views[0].ID, views[1].ID)
	}
}

func TestStartSpanWithoutTrace(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), "orphan")
	if sp.Active() {
		t.Fatal("span active without a trace")
	}
	sp.End() // must not panic
	if ctx != context.Background() {
		t.Fatal("no-op StartSpan rewrapped the context")
	}
}

func TestSpanCapDropsNotGrows(t *testing.T) {
	tracer := NewTracer(4, 1, time.Hour)
	ctx, done := tracer.StartRoot(context.Background(), "root")
	for i := 0; i < maxSpans+10; i++ {
		_, sp := StartSpan(ctx, "s")
		sp.End()
	}
	done()
	views := tracer.Recent()
	if len(views) != 1 {
		t.Fatalf("traces = %d", len(views))
	}
	if views[0].Dropped == 0 {
		t.Fatal("dropped counter not reported")
	}
}

func TestStartRootHookShape(t *testing.T) {
	tracer := NewTracer(4, 1, time.Nanosecond)
	ctx, done := tracer.StartRoot(context.Background(), "task.compact")
	_, sp := StartSpan(ctx, "inner")
	sp.End()
	done()
	views := tracer.Recent()
	if len(views) != 1 || views[0].Name != "task.compact" {
		t.Fatalf("views = %+v", views)
	}
	if len(views[0].Spans) != 1 || len(views[0].Spans[0].Children) != 1 {
		t.Fatalf("span tree = %+v", views[0].Spans)
	}
}

func TestNewLogger(t *testing.T) {
	var b bytes.Buffer
	l, err := NewLogger(&b, "json", "warn")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("hidden")
	l.Warn("shown", "k", "v")
	if strings.Contains(b.String(), "hidden") || !strings.Contains(b.String(), "shown") {
		t.Fatalf("level filtering wrong: %s", b.String())
	}
	var rec map[string]any
	if err := json.Unmarshal(b.Bytes(), &rec); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	if _, err := NewLogger(&b, "yaml", "info"); err == nil {
		t.Fatal("bad format accepted")
	}
	if _, err := NewLogger(&b, "text", "loud"); err == nil {
		t.Fatal("bad level accepted")
	}
}

func TestRequestLoggerOutsideMiddleware(t *testing.T) {
	var b bytes.Buffer
	base := slog.New(slog.NewTextHandler(&b, nil))
	rr := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/x", nil)
	RequestLogger(base, rr, req).Info("hello")
	if !strings.Contains(b.String(), "path=/x") {
		t.Fatalf("log = %s", b.String())
	}
	// nil base must not panic.
	RequestLogger(nil, rr, req).Info("dropped")
}
