package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	quick   bool
	boots   int // set-ups per run; setup_s is their median
	work    string
	out     string
	bin     string // built provserve
}

func (c *config) shape() corpusShape {
	if c.quick {
		return quickShape
	}
	return fullShape
}

// segment is the length of the slices a timed window is cut into.
func (c *config) segment(def *workloadDef) time.Duration {
	if c.quick {
		return 100 * time.Millisecond
	}
	return def.segment
}

// digestPrefix is how many of each client's first responses enter the
// run digest; the windows are timed, so only a fixed prefix repeats. It
// is small enough that a box three times slower than the one the
// benchmark was sized on still reaches it in every window.
func (c *config) digestPrefix() int {
	if c.quick {
		return 20
	}
	return 400
}

// boot is one set-up with its timed window: the scrapes either side of
// the window, and /proc.
type boot struct {
	window
	setupS   float64            // process start → warm-up done, as the clock read it
	speed    float64            // probe speed over that stretch
	booted   map[string]float64 // scrape right after /readyz
	before   map[string]float64
	after    map[string]float64
	rssMB    float64
	dataGrew int64
}

// served is what the untraced subprocess run hands to the metrics: one
// boot per set-up, and the verdicts of the deferred correctness pass.
type served struct {
	def   *workloadDef
	gen   *generator
	check *oracle
	warm  []request // set-up traffic before each window
	lists [][]request
	boots []*boot
	bootS float64 // process start → /readyz of the last boot
	flags []string

	attempted, failed, denied, leaks int
	provenance                       int // provenance requests, for denied_ratio
	digests                          []string
	firstWhy                         string
}

func (sv *served) windows() []*window {
	ws := make([]*window, len(sv.boots))
	for i, b := range sv.boots {
		ws[i] = &b.window
	}
	return ws
}

// measured is the total length of the timed windows.
func (sv *served) measured() time.Duration {
	var d time.Duration
	for _, b := range sv.boots {
		d += b.length()
	}
	return d
}

// requestLists builds both clients' lists before any clock starts.
func requestLists(g *generator, def *workloadDef, cfg *config) [][]request {
	n := 16384
	switch {
	case cfg.quick:
		n = 256
	case !def.readOnly:
		n = int(def.nominalRPS * 3 * cfg.seconds / 2)
	}
	return [][]request{def.gen(g, 0, n), def.gen(g, 1, n)}
}

// sendAll sends requests split over two connections (set-up traffic)
// and fails on any answer the oracle rejects.
func sendAll(ctx context.Context, hc *http.Client, base string, g *generator, o *oracle, reqs []request) error {
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := c; i < len(reqs); i += 2 {
				status, err := do(ctx, hc, base, g.tokens, &reqs[i], &buf)
				if err != nil {
					errs[c] = err
					return
				}
				if v := o.check(&reqs[i], status, buf.Bytes()); v.failed || v.leaks > 0 {
					errs[c] = fmt.Errorf("warm-up %s: %s", reqs[i].path, v.why)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// serve runs one workload against a real provserve cfg.boots times:
// fresh data copy, fresh process, /readyz, warm-up, then an equal share
// of the timed window driven in a closed loop and checked. Measuring on
// every set-up, not only the last, keeps one process's luck (heap
// layout, huge pages, a noisy neighbour) out of the medians.
func serve(ctx context.Context, cfg *config, c *corpus, corpusDir string, def *workloadDef) (*served, error) {
	g := newGenerator(c, cfg.seed)
	sv := &served{def: def, gen: g, check: &oracle{c: c, churn: !def.readOnly},
		warm: def.warm(g), lists: requestLists(g, def, cfg)}
	tokenFile := filepath.Join(cfg.work, "tokens")
	if err := writeTokenFile(tokenFile, g.tokens); err != nil {
		return nil, err
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	share := time.Duration(cfg.seconds / float64(cfg.boots) * float64(time.Second))
	dataDir := filepath.Join(cfg.work, "data")
	st := newProbeState()
	for i := 0; i < cfg.boots; i++ {
		for _, d := range []string{dataDir, filepath.Join(cfg.work, "audit")} {
			if err := os.RemoveAll(d); err != nil {
				return nil, err
			}
		}
		if err := copyDir(corpusDir, dataDir); err != nil {
			return nil, err
		}
		start, speed := time.Now(), startProbe(st)
		srv, err := startServer(ctx, hc, cfg.bin, cfg.work, dataDir, tokenFile)
		if err != nil {
			return nil, err
		}
		b, err := sv.measure(ctx, hc, srv, start, speed, share, cfg.segment(def), dataDir)
		if serr := srv.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
		sv.boots = append(sv.boots, b)
		sv.bootS, sv.flags = srv.bootS, srv.flags
		sv.verify(b, cfg.digestPrefix())
	}
	return sv, nil
}

// measure finishes one set-up on a started server (warm-up) and drives
// its timed window.
func (sv *served) measure(ctx context.Context, hc *http.Client, srv *provserve,
	start time.Time, speed func() float64, share, segment time.Duration, dataDir string) (*boot, error) {
	g, o := sv.gen, sv.check
	b := &boot{}
	var err error
	if b.booted, err = srv.scrape(ctx, hc); err != nil {
		return nil, err
	}
	if err := sendAll(ctx, hc, srv.base, g, o, sv.warm); err != nil {
		return nil, err
	}
	b.setupS, b.speed = time.Since(start).Seconds(), speed()
	if b.before, err = srv.scrape(ctx, hc); err != nil {
		return nil, err
	}
	size0, err := dirSize(dataDir)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	inline := func(r *request, status int, body []byte) {
		mu.Lock()
		defer mu.Unlock()
		sv.tally(o.check(r, status, body))
	}
	for _, l := range sv.lists {
		b.runs = append(b.runs, &clientRun{reqs: l, inline: inline})
	}
	if b.segs, err = drive(ctx, hc, srv.base, g.tokens, b.runs, share, segment, sv.def.readOnly, srv.cpuSeconds); err != nil {
		return nil, err
	}
	if b.rssMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	if b.after, err = srv.scrape(ctx, hc); err != nil {
		return nil, err
	}
	size1, err := dirSize(dataDir)
	if err != nil {
		return nil, err
	}
	b.dataGrew = size1 - size0
	return b, nil
}

func (sv *served) tally(v verdict) {
	if v.failed {
		sv.failed++
	}
	if v.denied {
		sv.denied++
	}
	sv.leaks += v.leaks
	if (v.failed || v.leaks > 0) && sv.firstWhy == "" {
		sv.firstWhy = v.why
	}
}

// verify is the deferred correctness pass over one boot's kept bodies.
// It also takes the response digest of each client's first responses;
// every boot of a read-only workload must produce the same digests (a
// box too slow to reach the prefix in a window yields none).
func (sv *served) verify(b *boot, prefix int) {
	var digests []string
	for _, cr := range b.runs {
		var d digest
		for i := range cr.samples {
			s := &cr.samples[i]
			r := &cr.reqs[s.req]
			sv.attempted++
			if r.kind == kProvenance {
				sv.provenance++
			}
			if s.failed {
				sv.tally(verdict{failed: true, why: "transport error on " + r.path})
				continue
			}
			if s.off < 0 {
				continue // checked inline when it arrived
			}
			body := cr.arena[s.off : s.off+s.n]
			sv.tally(sv.check.check(r, int(s.status), body))
			if i < prefix {
				d.add(r.path, int(s.status), body)
			}
		}
		cr.arena = nil
		if len(cr.samples) >= prefix {
			digests = append(digests, d.String())
		}
	}
	if !sv.def.readOnly || len(digests) < len(b.runs) {
		return
	}
	if sv.digests != nil && !slices.Equal(sv.digests, digests) {
		sv.tally(verdict{failed: true, why: fmt.Sprintf("response digests differ between two set-ups of one run: %v vs %v", sv.digests, digests)})
	}
	sv.digests = digests
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// okSample reports whether a sample is a success for throughput: any
// reply the deferred pass did not count as failed has the status the
// oracle expects, so the cheap test here is the status class.
func okSample(cr *clientRun, s *sample) bool {
	if s.failed {
		return false
	}
	if s.status == 403 {
		return cr.reqs[s.req].kind == kProvenance
	}
	return s.status >= 200 && s.status < 300
}

// endToEndMetrics are the gating numbers of the run. Every time among
// them is scaled to the reference machine speed (see probe); the raw
// readings are per-layer metrics (client.raw_*).
func (sv *served) endToEndMetrics() metricSet {
	ms := metricSet{}
	sgs := segmentsOf(sv.windows())
	var setups, rss []float64
	for _, b := range sv.boots {
		setups = append(setups, scaled(b.setupS, b.speed))
		rss = append(rss, b.rssMB)
	}
	ms.set(endToEnd, "setup_s", median(setups), len(setups))
	ms.set(endToEnd, "throughput_rps", throughput(sgs, okSample).scaled, sv.attempted)
	p50, n := segmented(sgs, 0.50, readKind)
	ms.set(endToEnd, "read_p50_ms", p50.scaled, n)
	p95, _ := segmented(sgs, 0.95, readKind)
	ms.set(endToEnd, "read_p95_ms", p95.scaled, n)
	ms.set(endToEnd, "server_cpu_ms_per_req", cpuPerRequest(sgs).scaled, sv.attempted)
	ms.set(endToEnd, "server_peak_rss_mb", median(rss), len(rss))
	return ms
}

func readKind(r *request) bool { return r.kind.read() }

// routes maps a latency pool to the server's matched-route labels.
var routes = map[string][]string{
	"search":     {`route="GET /api/v1/search"`},
	"query":      {`route="GET /api/v1/query"`},
	"provenance": {`route="GET /api/v1/provenance"`},
	"write": {`route="POST /api/v1/executions"`, `route="PUT /api/v1/policy"`,
		`route="POST /api/v1/specs"`, `route="DELETE /api/v1/specs/{id}"`},
}

// scraped is the Δ of a family of the server's /metrics across the
// timed windows, summed over the boots.
func (sv *served) scraped(family string, labels ...string) float64 {
	var total float64
	for _, b := range sv.boots {
		total += sumSeries(b.after, "provpriv_"+family, labels...) - sumSeries(b.before, "provpriv_"+family, labels...)
	}
	return total
}

// handlerMeanUS is the server's own mean handler time for a pool over
// the timed windows, from the route histograms' _sum and _count.
func (sv *served) handlerMeanUS(k string) (float64, int) {
	var sum, count float64
	for _, route := range routes[k] {
		sum += sv.scraped("http_request_duration_seconds_sum", route)
		count += sv.scraped("http_request_duration_seconds_count", route)
	}
	return ratio(sum*1e6, count), int(count)
}

// scrapeMetrics fills the per-layer metrics that come from the client
// samples, the Δ of the server's /metrics across the timed window, and
// the data directory.
func (sv *served) scrapeMetrics(ms metricSet) {
	d := sv.scraped
	ws := segmentsOf(sv.windows())
	last := sv.boots[len(sv.boots)-1]
	hitRatio := func(name string) float64 {
		h, m := d(name+"_hits_total"), d(name+"_misses_total")
		return ratio(h, h+m)
	}
	perOp := func(nanos, count string) (float64, int) {
		c := d(count)
		return ratio(d(nanos)/1e3, c), int(c)
	}
	set := func(name string, v float64, n int) { ms.set(perLayer, name, v, n) }
	for _, k := range append(append([]string(nil), kinds...), "save") {
		p50, n := segmented(ws, 0.50, func(r *request) bool { return r.kind.group() == k })
		set("client."+k+"_p50_ms", p50.scaled, n)
	}
	p95, n := segmented(ws, 0.95, func(r *request) bool { return r.kind.group() == "write" })
	set("client.write_p95_ms", p95.scaled, n)
	p99, n := segmented(ws, 0.99, readKind)
	set("client.read_p99_ms", p99.scaled, n)
	// What the clock read, before scaling to the reference speed.
	var speeds, setups []float64
	for i := range ws {
		speeds = append(speeds, ws[i].speed)
	}
	for _, b := range sv.boots {
		setups = append(setups, b.setupS)
	}
	set("client.probe_speed", median(speeds), len(speeds))
	set("client.raw_setup_s", median(setups), len(setups))
	set("client.raw_throughput_rps", throughput(ws, okSample).raw, sv.attempted)
	p50, n := segmented(ws, 0.50, readKind)
	set("client.raw_read_p50_ms", p50.raw, n)
	p95, _ = segmented(ws, 0.95, readKind)
	set("client.raw_read_p95_ms", p95.raw, n)
	set("server.raw_cpu_ms_per_req", cpuPerRequest(ws).raw, sv.attempted)
	set("client.failed_ratio", ratio(float64(sv.failed), float64(sv.attempted)), sv.attempted)
	set("client.denied_ratio", ratio(float64(sv.denied), float64(sv.provenance)), sv.provenance)
	set("client.leak_incidents", float64(sv.leaks), sv.attempted)

	var served float64
	for _, k := range kinds {
		mean, n := sv.handlerMeanUS(k)
		set("server.handler_mean_us."+k, mean, n)
		served += float64(n)
	}
	set("server.resp_kb_per_req", ratio(d("http_response_bytes_total", "/api/v1/")/1024, served), int(served))
	set("server.gc_cycles", d("go_gc_cycles_total"), 0)
	set("server.gc_pause_ms", d("go_gc_pause_seconds_total")*1e3, 0)
	set("server.heap_end_mb", sumSeries(last.after, "provpriv_go_heap_alloc_bytes")/(1<<20), 0)
	set("limit.rejected", d("limit_rejected_rate_total")+d("limit_rejected_concurrency_total")+d("limit_rejected_overload_total"), 0)
	set("auditlog.records", d("audit_records_total"), 0)
	set("repo.result_cache_hit_ratio", hitRatio("result_cache"), 0)
	set("repo.masked_cache_hit_ratio", hitRatio("masked_exec_cache"), 0)
	set("repo.view_cache_hit_ratio", hitRatio("view_cache"), 0)
	set("repo.taint_cache_hit_ratio", hitRatio("taint_cache"), 0)
	set("repo.corpus_rebuilds", d("corpus_rebuilds_total"), 0)
	set("repo.corpus_deltas", d("corpus_deltas_total"), 0)
	set("repo.index_swaps", d("index_snapshot_swaps_total"), 0)
	set("taint.rewritten_per_req", ratio(d("taint_items_rewritten_total"), served), int(served))
	set("taint.redacted_per_req", ratio(d("taint_items_redacted_total"), served), int(served))
	v, n := perOp("storage_append_nanos_total", "storage_appends_total")
	set("storage.append_us", v, n)
	v, n = perOp("storage_commit_nanos_total", "storage_commits_total")
	set("storage.commit_us", v, n)
	v, n = perOp("storage_checkpoint_nanos_total", "storage_checkpoints_total")
	set("storage.checkpoint_us", v, n)
	set("storage.append_records", d("storage_append_records_total"), 0)
	set("storage.errors", d("storage_errors_total"), 0)
	set("storage.replay_ms", sumSeries(last.booted, "provpriv_storage_replay_nanos_total")/1e6,
		int(sumSeries(last.booted, "provpriv_storage_replays_total")))
	var grew float64
	for _, b := range sv.boots {
		grew += float64(b.dataGrew)
	}
	execsAdded := d("executions")
	set("storage.bytes_per_exec", ratio(grew, execsAdded), int(execsAdded))
	set("tasks.succeeded", d("tasks_succeeded_total"), 0)
	set("tasks.failed", d("tasks_failed_total"), 0)
	set("tasks.retries", d("tasks_retries_total"), 0)
}
