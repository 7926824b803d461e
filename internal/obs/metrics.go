package obs

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// statusClasses label the histogram dimension derived from the response
// status code: index status/100, with 0 for anything outside 1xx–5xx.
var statusClasses = [...]string{"0xx", "1xx", "2xx", "3xx", "4xx", "5xx"}

// routeMetrics is the per-matched-pattern slot: one latency histogram
// per status class (the histogram's count doubles as the request
// counter) plus a response-byte counter.
type routeMetrics struct {
	classes [len(statusClasses)]Histogram
	bytes   atomic.Int64 //provlint:counter
}

// taskMetrics is the per-task-kind slot: how long tasks waited for a
// worker and how long their handlers ran.
type taskMetrics struct {
	queueWait Histogram
	run       Histogram
}

// Metrics is the registry behind the middleware and the /metrics page:
// per-route × status-class latency histograms, response sizes, the
// in-flight gauge, panic and slow-request counters, and per-task-class
// queue-wait/run-duration histograms. The observe path takes one
// RWMutex read lock and touches only atomics — no allocation, no
// interface boxing.
type Metrics struct {
	mu     sync.RWMutex
	routes map[string]*routeMetrics

	taskMu sync.RWMutex
	tasks  map[string]*taskMetrics

	inflight atomic.Int64
	panics   atomic.Int64 //provlint:counter
	slow     atomic.Int64 //provlint:counter
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		routes: make(map[string]*routeMetrics),
		tasks:  make(map[string]*taskMetrics),
	}
}

// observe records one completed request under its matched route
// pattern.
func (m *Metrics) observe(route string, status int, d time.Duration, bytes int64) {
	m.mu.RLock()
	rm := m.routes[route]
	m.mu.RUnlock()
	if rm == nil {
		m.mu.Lock()
		if rm = m.routes[route]; rm == nil {
			rm = &routeMetrics{}
			m.routes[route] = rm
		}
		m.mu.Unlock()
	}
	cls := status / 100
	if cls < 1 || cls >= len(statusClasses) {
		cls = 0
	}
	rm.classes[cls].Observe(d)
	if bytes > 0 {
		rm.bytes.Add(bytes)
	}
}

// ObserveTask records one terminal background task: how long it queued
// and how long its handler ran. The signature matches the task
// runtime's observer hook so the two packages stay decoupled.
func (m *Metrics) ObserveTask(kind string, queueWait, run time.Duration) {
	m.taskMu.RLock()
	tm := m.tasks[kind]
	m.taskMu.RUnlock()
	if tm == nil {
		m.taskMu.Lock()
		if tm = m.tasks[kind]; tm == nil {
			tm = &taskMetrics{}
			m.tasks[kind] = tm
		}
		m.taskMu.Unlock()
	}
	tm.queueWait.Observe(queueWait)
	tm.run.Observe(run)
}

// fmtFloat renders a float the exposition format accepts without
// trailing-zero noise.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeHistogramFamily renders one histogram metric family: a single
// HELP/TYPE header followed by _bucket/_sum/_count series per label
// set. labels are pre-rendered "k=\"v\"" fragments without the le pair.
func writeHistogramFamily(w io.Writer, name, help string, series []histSeries) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for _, s := range series {
		cum, count, sum := s.h.snapshot()
		sep := ""
		if s.labels != "" {
			sep = ","
		}
		for i, bound := range durationBounds {
			fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d\n", name, s.labels, sep, fmtFloat(bound), cum[i])
		}
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, s.labels, sep, cum[numBuckets-1])
		if s.labels == "" {
			fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, fmtFloat(sum), name, count)
		} else {
			fmt.Fprintf(w, "%s_sum{%s} %s\n%s_count{%s} %d\n", name, s.labels, fmtFloat(sum), name, s.labels, count)
		}
	}
}

type histSeries struct {
	labels string
	h      *Histogram
}

// WritePrometheus renders h as an unlabeled histogram family of its
// own: for a histogram declared beside the thing it times instead of
// inside Metrics.
func (h *Histogram) WritePrometheus(w io.Writer, name, help string) {
	writeHistogramFamily(w, name, help, []histSeries{{h: h}})
}

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format under the provpriv_ prefix: the HTTP families,
// the task families, and the Go runtime gauges. Families are emitted
// with exactly one HELP/TYPE header each and deterministic series
// order, which ValidateExposition pins.
func (m *Metrics) WritePrometheus(w io.Writer) {
	m.mu.RLock()
	routes := make([]string, 0, len(m.routes))
	for r := range m.routes {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	rms := make([]*routeMetrics, len(routes))
	for i, r := range routes {
		rms[i] = m.routes[r]
	}
	m.mu.RUnlock()

	fmt.Fprintf(w, "# HELP provpriv_http_in_flight_requests Requests currently being served.\n"+
		"# TYPE provpriv_http_in_flight_requests gauge\nprovpriv_http_in_flight_requests %d\n", m.inflight.Load())
	fmt.Fprintf(w, "# HELP provpriv_http_panics_total Handler panics recovered by the middleware.\n"+
		"# TYPE provpriv_http_panics_total counter\nprovpriv_http_panics_total %d\n", m.panics.Load())
	fmt.Fprintf(w, "# HELP provpriv_http_slow_requests_total Requests slower than the slow-request threshold.\n"+
		"# TYPE provpriv_http_slow_requests_total counter\nprovpriv_http_slow_requests_total %d\n", m.slow.Load())

	if len(routes) > 0 {
		fmt.Fprintf(w, "# HELP provpriv_http_requests_total Requests served, by matched route and status class.\n"+
			"# TYPE provpriv_http_requests_total counter\n")
		for i, route := range routes {
			for c, cls := range statusClasses {
				if n := rms[i].classes[c].Count(); n > 0 {
					fmt.Fprintf(w, "provpriv_http_requests_total{route=%q,status=%q} %d\n", route, cls, n)
				}
			}
		}
		var series []histSeries
		for i, route := range routes {
			for c, cls := range statusClasses {
				if rms[i].classes[c].Count() == 0 {
					continue
				}
				series = append(series, histSeries{
					labels: fmt.Sprintf("route=%q,status=%q", route, cls),
					h:      &rms[i].classes[c],
				})
			}
		}
		writeHistogramFamily(w, "provpriv_http_request_duration_seconds",
			"Request latency, by matched route and status class.", series)
		fmt.Fprintf(w, "# HELP provpriv_http_response_bytes_total Response body bytes written, by matched route.\n"+
			"# TYPE provpriv_http_response_bytes_total counter\n")
		for i, route := range routes {
			fmt.Fprintf(w, "provpriv_http_response_bytes_total{route=%q} %d\n", route, rms[i].bytes.Load())
		}
	}

	m.taskMu.RLock()
	kinds := make([]string, 0, len(m.tasks))
	for k := range m.tasks {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	tms := make([]*taskMetrics, len(kinds))
	for i, k := range kinds {
		tms[i] = m.tasks[k]
	}
	m.taskMu.RUnlock()
	if len(kinds) > 0 {
		waits := make([]histSeries, len(kinds))
		runs := make([]histSeries, len(kinds))
		for i, k := range kinds {
			waits[i] = histSeries{labels: fmt.Sprintf("kind=%q", k), h: &tms[i].queueWait}
			runs[i] = histSeries{labels: fmt.Sprintf("kind=%q", k), h: &tms[i].run}
		}
		writeHistogramFamily(w, "provpriv_tasks_queue_wait_seconds",
			"Time background tasks spent queued before a worker picked them up, by kind.", waits)
		writeHistogramFamily(w, "provpriv_tasks_run_seconds",
			"Background task handler run time, by kind.", runs)
	}

	writeRuntimeGauges(w)
}

// writeRuntimeGauges renders process introspection: goroutines, heap,
// and GC totals. ReadMemStats briefly stops the world — scrape-path
// only, never request-path.
func writeRuntimeGauges(w io.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var b strings.Builder
	gauge := func(name, help string, v string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, v)
	}
	counter := func(name, help string, v string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %s\n", name, help, name, name, v)
	}
	gauge("provpriv_go_goroutines", "Live goroutines.", strconv.Itoa(runtime.NumGoroutine()))
	gauge("provpriv_go_heap_alloc_bytes", "Bytes of allocated heap objects.", strconv.FormatUint(ms.HeapAlloc, 10))
	gauge("provpriv_go_heap_objects", "Live heap objects.", strconv.FormatUint(ms.HeapObjects, 10))
	counter("provpriv_go_gc_cycles_total", "Completed GC cycles.", strconv.FormatUint(uint64(ms.NumGC), 10))
	counter("provpriv_go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.",
		fmtFloat(float64(ms.PauseTotalNs)/1e9))
	io.WriteString(w, b.String())
}
