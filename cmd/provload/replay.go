package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"provpriv/internal/auditlog"
	"provpriv/internal/auth"
	"provpriv/internal/datapriv"
	"provpriv/internal/exec"
	"provpriv/internal/index"
	"provpriv/internal/limit"
	"provpriv/internal/obs"
	"provpriv/internal/privacy"
	"provpriv/internal/query"
	"provpriv/internal/rank"
	"provpriv/internal/repo"
	"provpriv/internal/search"
	"provpriv/internal/server"
	"provpriv/internal/storage"
	"provpriv/internal/taint"
	"provpriv/internal/workflow"
)

// Sizes of the traced replay: client 0's first replayRequests requests
// go through both passes; the layer functions below the repository are
// timed on the first layerSamples of them per kind.
const (
	replayRequests = 3000
	layerSamples   = 200
	hitSamples     = 200
)

// span is one timed call into a module's public function, the trace's
// unit. Parent is the span it is attributed to (0 for a root); spans of
// one replayed request share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Note   string `json:"note,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs int64  `json:"allocs,omitempty"`
}

// trace keeps every span in memory until the workload's replay ends.
type trace struct {
	t0    time.Time
	spans []span
}

// time runs fn inside a span and returns the span's id.
func (t *trace) time(name, note string, parent, req int, fn func()) int {
	start := time.Now()
	fn()
	end := time.Now()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Note: note,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return len(t.spans)
}

// timeAllocs is time with a Mallocs delta around the call; ReadMemStats
// stops the world, so it stays outside the timed region.
func (t *trace) timeAllocs(name, note string, parent, req int, fn func()) int {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := t.time(name, note, parent, req, fn)
	runtime.ReadMemStats(&m1)
	t.spans[id-1].Allocs = int64(m1.Mallocs - m0.Mallocs)
	return id
}

func (t *trace) retag(id int, note string) { t.spans[id-1].Note = note }

func (s *span) us() float64 { return float64(s.End-s.Start) / 1e3 }

// medianOf returns the median µs (or allocs) of the spans that match,
// and how many did.
func (t *trace) medianOf(name, note string, allocs bool) (float64, int) {
	var vals []float64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != name || (note != "" && s.Note != note) {
			continue
		}
		if allocs {
			vals = append(vals, float64(s.Allocs))
		} else {
			vals = append(vals, s.us())
		}
	}
	return median(vals), len(vals)
}

func (t *trace) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// harness is an in-process server wired like cmd/provserve over a fresh
// copy of the corpus, except that it has no task runtime: a background
// prewarm would make the cache state at step i differ between passes.
type harness struct {
	repo    *repo.Repository
	handler http.Handler
	auth    *auth.Store
	limiter *limit.Limiter
	rates   server.RoleRates
	observe *obs.Observer
	audit   *auditlog.Log
	dir     string
	loadS   float64
}

func newHarness(cfg *config, corpusDir, name string) (*harness, error) {
	h := &harness{dir: filepath.Join(cfg.work, "replay-"+name)}
	auditDir := h.dir + "-audit"
	for _, d := range []string{h.dir, auditDir} {
		if err := os.RemoveAll(d); err != nil {
			return nil, err
		}
	}
	if err := copyDir(corpusDir, h.dir); err != nil {
		return nil, err
	}
	start := time.Now()
	b, err := storage.OpenFlat(h.dir)
	if err != nil {
		return nil, err
	}
	store := storage.NewMeasure(b)
	if h.repo, err = repo.LoadStorage(store, h.dir); err != nil {
		store.Close()
		return nil, err
	}
	h.loadS = time.Since(start).Seconds()
	h.repo.AddUser(privacy.User{Name: "public", Level: privacy.Public, Group: "public"})
	h.repo.AddUser(privacy.User{Name: "registered", Level: privacy.Registered, Group: "registered"})
	h.repo.AddUser(privacy.User{Name: "analyst", Level: privacy.Analyst, Group: "analysts"})
	h.repo.AddUser(privacy.User{Name: "owner", Level: privacy.Owner, Group: "owners"})

	logger, err := obs.NewLogger(io.Discard, "text", "error")
	if err != nil {
		return nil, err
	}
	srv := server.New(h.repo)
	srv.Logger = logger
	srv.Store = store
	srv.RequireStorage = true
	srv.SaveDir = h.dir
	h.observe = obs.NewObserver(obs.NewMetrics(), logger, obs.NewTracer(256, 0, 500*time.Millisecond))
	srv.Obs = h.observe
	if h.auth, err = auth.NewFileStore(filepath.Join(cfg.work, "tokens")); err != nil {
		return nil, err
	}
	srv.Auth = h.auth
	h.limiter = limit.New(limit.Config{MaxInFlight: 256, MaxInFlightPerPrincipal: 64})
	rate := limit.Rate{PerSec: 100000, Burst: 100000}
	h.rates = server.RoleRates{Reader: rate, Writer: rate, Admin: rate}
	srv.Limiter, srv.Rates = h.limiter, h.rates
	ab, err := storage.OpenFlat(auditDir)
	if err != nil {
		return nil, err
	}
	if h.audit, err = auditlog.Open(ab); err != nil {
		return nil, err
	}
	srv.Audit = h.audit
	h.handler = srv.Handler()
	return h, nil
}

func (h *harness) close() error {
	err := h.repo.CloseStorage()
	if cerr := h.audit.Close(); err == nil {
		err = cerr
	}
	return err
}

// serveHTTP sends one request through the production middleware stack
// into a recorder.
func (h *harness) serveHTTP(r *request, tokens []token) *httptest.ResponseRecorder {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req := httptest.NewRequest(r.method, r.path, body)
	req.Header.Set("Authorization", "Bearer "+tokens[r.tok].secret)
	rec := httptest.NewRecorder()
	h.handler.ServeHTTP(rec, req)
	return rec
}

// direct makes the repository call a request's handler makes, inside a
// span, and classifies it by the Δ of the repository's own counters
// read either side of the timed region.
func (h *harness) direct(ctx context.Context, tr *trace, r *request, tokens []token, parent, req int) (int, error) {
	user := tokens[r.tok].user
	var err error
	switch r.kind {
	case kSearch:
		_, miss0 := h.repo.CacheStats()
		id := tr.timeAllocs("repo.search", "", parent, req, func() {
			_, _, err = h.repo.SearchPageCtx(ctx, user, r.text, repo.SearchOptions{Limit: 10})
		})
		if _, miss1 := h.repo.CacheStats(); miss1 > miss0 {
			tr.retag(id, "miss")
		} else {
			tr.retag(id, "hit")
		}
		return id, err
	case kProvenance, kQuery:
		miss0 := h.repo.Stats().MaskedCacheMisses
		name := "repo.provenance"
		call := func() { _, err = h.repo.ProvenanceWithCtx(ctx, user, r.spec, r.exec, r.item, repo.ProvenanceOptions{}) }
		if r.kind == kQuery {
			name = "repo.query"
			call = func() { _, err = h.repo.Query(user, r.spec, r.exec, r.text) }
		}
		id := tr.timeAllocs(name, "", parent, req, call)
		if h.repo.Stats().MaskedCacheMisses > miss0 {
			tr.retag(id, "cold")
		} else {
			tr.retag(id, "warm")
		}
		if errors.Is(err, repo.ErrDenied) {
			err = nil // a denial is an answer; pass A's oracle judged it
		}
		return id, err
	case kQueryAll:
		return tr.time("repo.queryall", "", parent, req, func() {
			_, _, err = h.repo.QueryAllPageCtx(ctx, user, r.spec, r.text, 10, 0)
		}), err
	case kAddExec:
		var e *exec.Execution
		tr.time("exec.unmarshal", "", parent, req, func() { e, err = exec.UnmarshalExecution(r.body) })
		if err != nil {
			return 0, err
		}
		return tr.time("repo.addexecution", "", parent, req, func() { err = h.repo.AddExecution(e) }), err
	case kPolicy:
		var body struct {
			Policy *privacy.Policy `json:"policy"`
		}
		if err := json.Unmarshal(r.body, &body); err != nil {
			return 0, err
		}
		return tr.time("repo.updatepolicy", "", parent, req, func() { err = h.repo.UpdatePolicy(r.spec, body.Policy) }), err
	case kAddSpec:
		var body struct {
			Spec   json.RawMessage `json:"spec"`
			Policy *privacy.Policy `json:"policy"`
		}
		if err := json.Unmarshal(r.body, &body); err != nil {
			return 0, err
		}
		spec, err := workflow.UnmarshalSpec(body.Spec)
		if err != nil {
			return 0, err
		}
		return tr.time("repo.addspec", "", parent, req, func() { err = h.repo.AddSpec(spec, body.Policy) }), err
	case kDelSpec:
		return tr.time("repo.removespec", "", parent, req, func() { err = h.repo.RemoveSpec(r.spec) }), err
	default: // kSave
		return tr.time("repo.save", "", parent, req, func() { err = h.repo.SaveCtx(ctx, h.dir) }), err
	}
}

// replay is the traced run. Pass A sends client 0's first requests
// through Server.Handler().ServeHTTP on one repository; pass B makes the
// direct repository call for the same request on a second, fresh
// repository, so the cache state at step i is the same in both; then
// each lower layer's public function is timed on the same inputs with
// structures built from the corpus by public constructors. Layers are
// replayed, not nested: a parent is an attribution, and self time is an
// aggregate subtraction.
func replay(ctx context.Context, cfg *config, corpusDir string, sv *served, ms metricSet) error {
	g, o, warm := sv.gen, sv.check, sv.warm
	reqs := sv.lists[0]
	if len(reqs) > replayRequests {
		reqs = reqs[:replayRequests]
	}
	tr := &trace{t0: time.Now()}
	set := func(name string, v float64, n int) { ms.set(perLayer, name, v, n) }

	// Pass A: the served path.
	a, err := newHarness(cfg, corpusDir, "a")
	if err != nil {
		return err
	}
	for i := range warm {
		a.serveHTTP(&warm[i], g.tokens)
	}
	serveIDs := make([]int, len(reqs))
	for i := range reqs {
		r := &reqs[i]
		var rec *httptest.ResponseRecorder
		serveIDs[i] = tr.timeAllocs("server.serve", r.kind.group(), 0, i, func() { rec = a.serveHTTP(r, g.tokens) })
		if v := o.check(r, rec.Code, rec.Body.Bytes()); v.failed || v.leaks > 0 {
			a.close()
			return fmt.Errorf("pass A request %d %s: %s", i, r.path, v.why)
		}
	}
	if err := a.close(); err != nil {
		return err
	}

	// Pass B: the repository call, and the per-request constant layers.
	b, err := newHarness(cfg, corpusDir, "b")
	if err != nil {
		return err
	}
	defer b.close()
	for i := range warm {
		if _, err := b.direct(ctx, &trace{t0: tr.t0}, &warm[i], g.tokens, 0, -1); err != nil {
			return fmt.Errorf("pass B warm-up %s: %w", warm[i].path, err)
		}
	}
	noop := b.observe.Middleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	repoIDs := make([]int, len(reqs))
	for i := range reqs {
		r := &reqs[i]
		tok := g.tokens[r.tok]
		tr.time("auth.authenticate", "", serveIDs[i], i, func() { b.auth.Authenticate(tok.secret) })
		tr.time("limit.allow", "", serveIDs[i], i, func() { b.limiter.Allow(tok.name, b.rates.Reader).Release() })
		req, rec := httptest.NewRequest(r.method, r.path, nil), httptest.NewRecorder()
		tr.time("obs.middleware", "", serveIDs[i], i, func() { noop.ServeHTTP(rec, req) })
		if repoIDs[i], err = b.direct(ctx, tr, r, g.tokens, serveIDs[i], i); err != nil {
			return fmt.Errorf("pass B request %d %s: %w", i, r.path, err)
		}
	}
	// Result-cache hits: re-issue the same key immediately.
	for i, n := 0, 0; i < len(reqs) && n < hitSamples; i++ {
		if reqs[i].kind == kSearch {
			n++
			for k := 0; k < 2; k++ {
				if _, err := b.direct(ctx, tr, &reqs[i], g.tokens, 0, i); err != nil {
					return err
				}
			}
		}
	}
	set("repo.load_s", b.loadS, 1)

	// Allocations of the constant layers, as Mallocs deltas around
	// single-goroutine batches.
	const batch = 1000
	secret := g.tokens[0].secret
	set("auth.authenticate_allocs", mallocsPer(batch, func() { b.auth.Authenticate(secret) }), batch)
	req, rec := httptest.NewRequest("GET", "/api/v1/search?q=x", nil), httptest.NewRecorder()
	set("obs.middleware_allocs", mallocsPer(batch, func() { noop.ServeHTTP(rec, req) }), batch)
	for i := 0; i < layerSamples; i++ {
		tr.time("auditlog.append", "", 0, -1, func() {
			err = b.audit.Append(auditlog.Record{Principal: "analyst", Token: "w0", Role: "writer", Action: "exec.add", Target: "x", Status: 201})
		})
		if err != nil {
			return err
		}
	}

	if err := layers(tr, g.c, reqs, repoIDs); err != nil {
		return err
	}

	// Aggregate: medians per span name, then the subtractions.
	med := func(metric, name, note string, allocs bool) {
		v, n := tr.medianOf(name, note, allocs)
		set(metric, v, n)
	}
	constant := 0.0
	for _, l := range [][2]string{{"auth.authenticate_us", "auth.authenticate"}, {"limit.allow_us", "limit.allow"}, {"obs.middleware_us", "obs.middleware"}} {
		med(l[0], l[1], "", false)
		constant += ms[l[0]].Value
	}
	for _, k := range kinds {
		med("server.serve_us."+k, "server.serve", k, false)
		med("server.serve_allocs."+k, "server.serve", k, true)
		var self, serveUS []float64
		for i := range reqs {
			if reqs[i].kind.group() == k {
				serve := tr.spans[serveIDs[i]-1].us()
				serveUS = append(serveUS, serve)
				self = append(self, serve-tr.spans[repoIDs[i]-1].us()-constant)
			}
		}
		set("server.self_us."+k, median(self), len(self))
		// The guard compares means: the scrape only has the served mean.
		if served := ms["server.handler_mean_us."+k].Value; served > 0 && len(serveUS) > 0 {
			set("trace.replay_vs_served."+k, mean(serveUS)/served, len(serveUS))
		}
	}
	med("auditlog.append_us", "auditlog.append", "", false)
	med("repo.search_miss_us", "repo.search", "miss", false)
	med("repo.search_hit_us", "repo.search", "hit", false)
	med("repo.search_miss_allocs", "repo.search", "miss", true)
	med("repo.search_hit_allocs", "repo.search", "hit", true)
	med("repo.provenance_warm_us", "repo.provenance", "warm", false)
	med("repo.provenance_cold_us", "repo.provenance", "cold", false)
	med("repo.provenance_warm_allocs", "repo.provenance", "warm", true)
	med("repo.provenance_cold_allocs", "repo.provenance", "cold", true)
	med("repo.query_warm_us", "repo.query", "warm", false)
	med("repo.query_cold_us", "repo.query", "cold", false)
	for _, name := range []string{"repo.queryall", "repo.addexecution", "repo.updatepolicy", "repo.save",
		"index.lookup", "index.addspec", "rank.rank", "rank.build", "search.parse", "search.matches", "search.views",
		"privacy.accessview", "exec.collapse", "exec.provenance", "exec.unmarshal", "exec.marshal",
		"taint.analyze", "taint.apply", "datapriv.maskview", "query.parse", "query.prepare", "query.evaluate"} {
		med(name+"_us", name, "", false)
	}
	return tr.write(filepath.Join(cfg.out, "trace-"+sv.def.name+".jsonl"))
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return ratio(s, float64(len(v)))
}

// mallocsPer is the Mallocs delta of n calls on this goroutine, per call.
func mallocsPer(n int, fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// visibleTerms is the document a per-level ranking corpus holds for a
// spec: the normalized keywords of the modules visible at the level.
func visibleTerms(s *workflow.Spec, pol *privacy.Policy, l privacy.Level) []string {
	var terms []string
	for _, wid := range s.WorkflowIDs() {
		for _, m := range s.Workflows[wid].Modules {
			if !pol.CanSeeModule(l, m.ID) {
				continue
			}
			for _, kw := range m.AllKeywords() {
				terms = append(terms, search.Normalize(kw))
			}
		}
	}
	return terms
}

// layers times each module below the repository on the workload's own
// inputs, attributing every span to the repo span of the request the
// input came from. The structures are the ones the engine derives, built
// here through the modules' public constructors.
func layers(tr *trace, c *corpus, reqs []request, repoIDs []int) error {
	var specs []*workflow.Spec
	pols := map[string]*privacy.Policy{}
	for _, id := range append(append([]string(nil), c.wide...), c.deep...) {
		specs = append(specs, c.specs[id].spec)
		pols[id] = c.specs[id].pols[0]
	}
	ix := index.BuildInverted(specs, pols)
	corpora := map[privacy.Level]*rank.Corpus{}
	for rep := 0; rep < 3; rep++ {
		for _, l := range levels {
			tr.time("rank.build", "", 0, -1, func() {
				rc := rank.NewCorpus()
				for _, s := range specs {
					rc.Add(s.ID, visibleTerms(s, pols[s.ID], l))
				}
				corpora[l] = rc
			})
		}
	}
	for i := 0; i < 32; i++ {
		s := specs[i%len(specs)]
		tr.time("index.addspec", "", 0, -1, func() { ix.AddSpec(s, pols[s.ID]) })
	}

	var err error
	nSearch, nRead := 0, 0
	for i := range reqs {
		r := &reqs[i]
		parent := repoIDs[i]
		switch {
		case r.kind == kSearch && nSearch < layerSamples:
			nSearch++
			var phrases [][]string
			tr.time("search.parse", "", parent, i, func() { phrases = search.ParseQuery(r.text) })
			candidates := map[string]bool{}
			tr.time("index.lookup", "", parent, i, func() {
				for _, ph := range phrases {
					for _, p := range ix.Lookup(ph[0], r.level) {
						candidates[p.SpecID] = true
					}
				}
			})
			var flat []string
			for _, ph := range phrases {
				flat = append(flat, ph...)
			}
			var ranked []rank.Ranked
			tr.time("rank.rank", "", parent, i, func() { ranked = corpora[r.level].Rank(flat) })
			matched := map[string]bool{}
			tr.time("search.matches", "", parent, i, func() {
				for id := range candidates {
					matched[id] = search.Matches(c.specs[id].spec, phrases, pols[id], r.level)
				}
			})
			// The window: the first ten matching candidates in rank order.
			var window []*specEntry
			for _, rk := range ranked {
				if matched[rk.Doc] && len(window) < 10 {
					window = append(window, c.specs[rk.Doc])
				}
			}
			tr.time("search.views", "", parent, i, func() {
				for _, se := range window {
					access := se.pols[0].AccessView(se.hier, r.level)
					if _, serr := search.SearchWithAccess(se.spec, phrases, access, se.pols[0], r.level); serr != nil {
						err = serr
					}
				}
			})
			for _, se := range window {
				tr.time("privacy.accessview", "", parent, i, func() { se.pols[0].AccessView(se.hier, r.level) })
			}
		case (r.kind == kProvenance || r.kind == kQuery) && !r.hidden && nRead < layerSamples:
			nRead++
			se := c.specs[r.spec]
			pol, full := se.pols[0], se.byID[r.exec]
			access := pol.AccessView(se.hier, r.level)
			var view, masked *exec.Execution
			tr.time("exec.collapse", "", parent, i, func() { view, err = exec.Collapse(full, se.spec, access) })
			if err != nil {
				return err
			}
			en := taint.NewEngine(pol, nil)
			var set *taint.Set
			tr.time("taint.analyze", "", parent, i, func() { set = en.Analyze(full) })
			tr.time("taint.apply", "", parent, i, func() { masked, _ = en.Apply(view, r.level, set) })
			tr.time("datapriv.maskview", "", parent, i, func() { datapriv.NewMasker(pol, nil).MaskView(full, view, r.level) })
			var prep *query.PreparedExec
			tr.time("query.prepare", "", parent, i, func() { prep, err = query.PrepareExec(masked) })
			if err != nil {
				return err
			}
			if r.kind == kProvenance {
				var prov *exec.Execution
				tr.time("exec.provenance", "", parent, i, func() { prov, err = exec.ProvenanceIn(masked, prep.Graph(), r.item) })
				if err != nil {
					return err
				}
				tr.time("exec.marshal", "", parent, i, func() { _, err = exec.MarshalExecution(prov) })
			} else {
				var q *query.Query
				tr.time("query.parse", "", parent, i, func() { q, err = query.Parse(r.text) })
				if err != nil {
					return err
				}
				zoomed := len(access) < len(se.hier.All())
				tr.time("query.evaluate", "", parent, i, func() {
					_, err = query.NewEvaluator(se.spec).EvaluateOn(q, prep, pol, r.level, zoomed)
				})
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}
