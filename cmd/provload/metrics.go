package main

import "sort"

// metricDecl declares one metric. BENCHMARK.json carries the same list;
// the smoke test asserts the two agree, so they cannot drift.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the gating metrics: what a principal (or the operator
// paying for the box) sees on every workload. None can be 0. Latency by
// request kind is per-layer (client.*_p50_ms) because no kind is sent
// by every workload. The bounds are three times the spread of ten runs
// with ten seeds on the shared 2-vCPU box the benchmark was sized on
// (see README.md, Sizing), capped at the contract's 0.25.
var endToEnd = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "read_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "server_cpu_ms_per_req", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "server_peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// kinds are the latency pools of the per-kind metrics ({k} in the
// README's tables).
var kinds = []string{"search", "query", "provenance", "write"}

// perLayer lists every per-layer metric by module. A metric whose layer
// does no work on a workload reads 0 with sample count 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDecl {
	var out []metricDecl
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDecl{Name: n, Unit: unit, Better: better})
		}
	}
	perKind := func(prefix string) []string {
		var names []string
		for _, k := range kinds {
			names = append(names, prefix+"."+k)
		}
		return names
	}
	// client: what the generator saw, by request kind; not gating
	// because no kind is on every workload (and p99 spreads ≈ 30 %).
	add("lower", "ms", "client.search_p50_ms", "client.query_p50_ms", "client.provenance_p50_ms",
		"client.write_p50_ms", "client.save_p50_ms", "client.write_p95_ms", "client.read_p99_ms")
	// What the clock read before scaling to the reference speed, and the
	// speed the probe saw.
	add("lower", "ms", "client.raw_read_p50_ms", "client.raw_read_p95_ms")
	add("higher", "1/s", "client.raw_throughput_rps", "client.probe_speed")
	add("lower", "s", "client.raw_setup_s")
	add("lower", "ratio", "client.failed_ratio", "client.denied_ratio")
	add("lower", "count", "client.leak_incidents")
	// server, scraped from /metrics across the timed window.
	add("lower", "us", perKind("server.handler_mean_us")...)
	add("lower", "KB", "server.resp_kb_per_req")
	add("lower", "count", "server.gc_cycles")
	add("lower", "ms", "server.gc_pause_ms")
	add("lower", "MB", "server.heap_end_mb")
	add("lower", "ms", "server.raw_cpu_ms_per_req")
	// server, replayed through Server.Handler().ServeHTTP.
	add("lower", "us", perKind("server.serve_us")...)
	add("lower", "count", perKind("server.serve_allocs")...)
	add("lower", "us", perKind("server.self_us")...)
	add("lower", "ratio", perKind("trace.replay_vs_served")...)
	add("lower", "us", "auth.authenticate_us")
	add("lower", "count", "auth.authenticate_allocs")
	add("lower", "us", "limit.allow_us")
	add("lower", "count", "limit.rejected")
	add("lower", "us", "obs.middleware_us")
	add("lower", "count", "obs.middleware_allocs")
	add("lower", "us", "auditlog.append_us")
	add("higher", "count", "auditlog.records")
	add("lower", "us", "repo.search_miss_us", "repo.search_hit_us")
	add("lower", "count", "repo.search_miss_allocs", "repo.search_hit_allocs")
	add("lower", "us", "repo.provenance_warm_us", "repo.provenance_cold_us")
	add("lower", "count", "repo.provenance_warm_allocs", "repo.provenance_cold_allocs")
	add("lower", "us", "repo.query_warm_us", "repo.query_cold_us", "repo.queryall_us",
		"repo.addexecution_us", "repo.updatepolicy_us", "repo.save_us")
	add("lower", "s", "repo.load_s")
	add("higher", "ratio", "repo.result_cache_hit_ratio", "repo.masked_cache_hit_ratio",
		"repo.view_cache_hit_ratio", "repo.taint_cache_hit_ratio")
	add("lower", "count", "repo.corpus_rebuilds", "repo.corpus_deltas", "repo.index_swaps")
	add("lower", "us", "index.lookup_us", "index.addspec_us", "rank.rank_us", "rank.build_us",
		"search.parse_us", "search.matches_us", "search.views_us", "privacy.accessview_us",
		"exec.collapse_us", "exec.provenance_us", "exec.unmarshal_us", "exec.marshal_us",
		"taint.analyze_us", "taint.apply_us")
	add("lower", "count", "taint.rewritten_per_req", "taint.redacted_per_req")
	add("lower", "us", "datapriv.maskview_us", "query.parse_us", "query.prepare_us", "query.evaluate_us",
		"storage.append_us", "storage.commit_us", "storage.checkpoint_us")
	add("lower", "count", "storage.append_records", "storage.errors")
	add("lower", "ms", "storage.replay_ms")
	add("lower", "B", "storage.bytes_per_exec")
	add("higher", "count", "tasks.succeeded")
	add("lower", "count", "tasks.failed", "tasks.retries")
	return out
}

// value is one measured metric: the number, its unit and how many
// samples stand behind it (0 for counts and ratios read off a scrape).
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metricSet collects measured values under declared names.
type metricSet map[string]value

func (m metricSet) set(decls []metricDecl, name string, v float64, n int) {
	for _, d := range decls {
		if d.Name == name {
			m[name] = value{Value: v, Unit: d.Unit, N: n}
			return
		}
	}
	panic("provload: undeclared metric " + name)
}

// complete fills every declared metric the run did not measure with 0,
// so each run emits exactly the declared set.
func (m metricSet) complete(decls []metricDecl) {
	for _, d := range decls {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = value{Unit: d.Unit}
		}
	}
}

func (m metricSet) names() []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
