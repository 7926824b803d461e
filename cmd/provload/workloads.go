package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"time"

	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// kind classifies a request for latency pooling and for the replay.
type kind uint8

const (
	kSearch kind = iota
	kQuery
	kQueryAll
	kProvenance
	kAddExec
	kPolicy
	kAddSpec
	kDelSpec
	kSave
)

// group is the latency pool a kind reports under.
func (k kind) group() string {
	switch k {
	case kSearch:
		return "search"
	case kQuery, kQueryAll:
		return "query"
	case kProvenance:
		return "provenance"
	case kSave:
		return "save"
	default:
		return "write"
	}
}

func (k kind) read() bool { return k <= kProvenance }

// request is one pre-generated HTTP request plus what the oracle and
// the replay need to know about it. Everything is built before the
// clock starts.
type request struct {
	kind   kind
	method string
	path   string // path and query
	body   []byte
	tok    int // index into the token list
	level  privacy.Level
	spec   string
	exec   string
	item   string
	text   string // keyword or structural query
	hidden bool   // provenance of an item chosen to be invisible
}

// workloadDef is one named, fixed traffic mix.
type workloadDef struct {
	name string
	why  string
	// readOnly workloads cycle their request lists and print a response
	// digest that must repeat across same-seed runs.
	readOnly bool
	// nominalRPS sizes a non-cycling request list; measured at the seed
	// on 2 vCPU and tripled, so the list outlasts the window.
	nominalRPS float64
	// segment is the length of the slices the timed window is cut into:
	// short, so that a run has many and a stall spoils few, but long
	// enough to hold every kind of request the workload sends
	// (mutate-churn's client 0 saves about twice a second).
	segment time.Duration
	gen     func(g *generator, client, n int) []request
	// warm lists the requests set-up sends before the timed window.
	warm func(g *generator) []request
}

var workloads = []workloadDef{
	{
		name:     "search-zipf",
		why:      "keyword search over 4096 (query, group) keys, far more than the 256-entry result cache: index, rank, search and AccessView do the work",
		readOnly: true,
		segment:  250 * time.Millisecond,
		gen:      (*generator).searchZipf,
		warm:     (*generator).warmSearch,
	},
	{
		name:     "read-warm",
		why:      "provenance and structural queries on fully resident wide specs: masked-snapshot hit ratio near 1, so server encode, ProvenanceIn and EvaluateOn dominate",
		readOnly: true,
		segment:  250 * time.Millisecond,
		gen:      (*generator).readWarm,
		warm:     (*generator).warmSnapshots,
	},
	{
		name:     "scraper",
		why:      "two principals walking every execution of a deep spec in order: working set above every per-shard LRU, hit ratios near 0, so Collapse, taint and PrepareExec set the latency",
		readOnly: true,
		segment:  250 * time.Millisecond,
		gen:      (*generator).scraper,
		warm:     func(*generator) []request { return nil },
	},
	{
		name:       "mutate-churn",
		why:        "reads beside execution, policy and spec mutations and saves: cache invalidation, index swaps, corpus deltas, storage and audit appends trade against the read path",
		nominalRPS: 1500,
		segment:    500 * time.Millisecond,
		gen:        (*generator).mutateChurn,
		warm:       (*generator).warmSnapshots,
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// generator derives request lists from the corpus and the seed.
type generator struct {
	c      *corpus
	seed   int64
	tokens []token
	vocab  []string
}

func newGenerator(c *corpus, seed int64) *generator {
	return &generator{c: c, seed: seed, tokens: tokensFor(seed), vocab: workload.DefaultVocab()}
}

// readerToken is the index of client's reader token at a level.
func (g *generator) readerToken(client int, l privacy.Level) int { return int(l)*2 + client%2 }
func (g *generator) writerToken() int                            { return len(levels) * 2 }
func (g *generator) adminToken() int                             { return len(levels)*2 + 1 }

// deck deals a fixed mix: every len(faces) draws hold face i exactly
// counts[i] times, in an order shuffled from the seed. Dealing instead of
// rolling keeps the number of expensive operations in a window (a policy
// update costs a hundred reads) from varying between runs and seeds.
type deck struct {
	rng   *rand.Rand
	faces []int
	next  int
}

func newDeck(rng *rand.Rand, counts ...int) *deck {
	d := &deck{rng: rng}
	for face, n := range counts {
		for i := 0; i < n; i++ {
			d.faces = append(d.faces, face)
		}
	}
	return d
}

func (d *deck) draw() int {
	if d.next == 0 {
		d.rng.Shuffle(len(d.faces), func(i, j int) { d.faces[i], d.faces[j] = d.faces[j], d.faces[i] })
	}
	f := d.faces[d.next]
	d.next = (d.next + 1) % len(d.faces)
	return f
}

// levelDeck deals the read principal mix: public 40 %, registered 30 %,
// analyst 20 %, owner 10 % (the faces are the privacy levels).
func levelDeck(rng *rand.Rand) *deck { return newDeck(rng, 4, 3, 2, 1) }

func (g *generator) rng(client int, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(g.seed*7919 + int64(client)*104729 + salt))
}

func (g *generator) search(client int, l privacy.Level, text string) request {
	return request{
		kind: kSearch, method: "GET", tok: g.readerToken(client, l), level: l, text: text,
		path: "/api/v1/search?limit=10&q=" + url.QueryEscape(text),
	}
}

func (g *generator) query(client int, l privacy.Level, spec, execID, text string) request {
	r := request{kind: kQuery, method: "GET", tok: g.readerToken(client, l), level: l, spec: spec, exec: execID, text: text}
	if execID == "" {
		r.kind = kQueryAll
		r.path = "/api/v1/query?limit=10&spec=" + url.QueryEscape(spec) + "&q=" + url.QueryEscape(text)
	} else {
		r.path = "/api/v1/query?spec=" + url.QueryEscape(spec) + "&exec=" + url.QueryEscape(execID) + "&q=" + url.QueryEscape(text)
	}
	return r
}

func (g *generator) provenance(client int, l privacy.Level, spec, execID, item string, hidden bool) request {
	return request{
		kind: kProvenance, method: "GET", tok: g.readerToken(client, l), level: l,
		spec: spec, exec: execID, item: item, hidden: hidden,
		path: "/api/v1/provenance?spec=" + url.QueryEscape(spec) + "&exec=" + url.QueryEscape(execID) + "&item=" + url.QueryEscape(item),
	}
}

func (g *generator) zipfTerm(rng *rand.Rand) string {
	return g.vocab[workload.ZipfPick(rng, len(g.vocab))]
}

// searchZipf: queries drawn uniformly from 1024 distinct RandomQueries
// strings; the terms inside are Zipf, so posting-list lengths are skewed.
func (g *generator) searchZipf(client, n int) []request {
	qrng := g.rng(0, 1) // the query list is shared by both clients
	seen := map[string]bool{}
	var queries []string
	for len(queries) < 1024 {
		q := workload.RandomQueries(qrng, g.vocab, 1)[0]
		if !seen[q] {
			seen[q] = true
			queries = append(queries, q)
		}
	}
	rng := g.rng(client, 2)
	lv := levelDeck(rng)
	out := make([]request, n)
	for i := range out {
		out[i] = g.search(client, privacy.Level(lv.draw()), queries[rng.Intn(len(queries))])
	}
	return out
}

// wideRead draws one read of the given kind on a wide spec. One
// provenance request in ten names a hidden item.
func (g *generator) wideRead(rng *rand.Rand, lv *deck, client int, k kind) request {
	l := privacy.Level(lv.draw())
	id := g.c.wide[rng.Intn(len(g.c.wide))]
	se := g.c.specs[id]
	execID := se.execs[rng.Intn(len(se.execs))].ID
	switch k {
	case kProvenance:
		if rng.Intn(10) == 0 {
			return g.provenance(client, l, id, execID, se.hiddenItem(l, rng.Int()), true)
		}
		vis := se.visible[0][l]
		return g.provenance(client, l, id, execID, vis[rng.Intn(len(vis))], false)
	case kQuery:
		return g.query(client, l, id, execID, fmt.Sprintf("MATCH a = %q", g.zipfTerm(rng)))
	default:
		return g.query(client, l, id, "", fmt.Sprintf("MATCH a = %q, b = %q WHERE a ~> b", g.zipfTerm(rng), g.zipfTerm(rng)))
	}
}

// readWarm: 45 % provenance, 45 % per-execution query, 10 %
// all-executions query, on the wide specs.
func (g *generator) readWarm(client, n int) []request {
	rng := g.rng(client, 3)
	lv, mix := levelDeck(rng), newDeck(rng, 9, 9, 2)
	out := make([]request, n)
	for i := range out {
		out[i] = g.wideRead(rng, lv, client, []kind{kProvenance, kQuery, kQueryAll}[mix.draw()])
	}
	return out
}

// scraper: client 0 walks deep-0 as registered, client 1 walks deep-1
// as analyst, execution by execution, cyclically. Provenance (of the
// last visible item) and per-execution query alternate by position and
// swap each cycle, so an execution's snapshot is never re-read before
// the walk has pushed it out of the LRU.
func (g *generator) scraper(client, n int) []request {
	l := []privacy.Level{privacy.Registered, privacy.Analyst}[client%2]
	id := g.c.deep[client%len(g.c.deep)]
	se := g.c.specs[id]
	vis := se.visible[0][l]
	rng := g.rng(client, 4)
	out := make([]request, 2*len(se.execs))
	for i := range out {
		e := se.execs[i%len(se.execs)]
		if (i/len(se.execs)+i)%2 == 0 {
			out[i] = g.provenance(client, l, id, e.ID, vis[len(vis)-1], false)
		} else {
			out[i] = g.query(client, l, id, e.ID, fmt.Sprintf("MATCH a = %q", g.zipfTerm(rng)))
		}
	}
	return out
}

// saveEvery makes client 0's every Nth request a POST /save.
const saveEvery = 250

// churnMix is mutate-churn's deal, per 200 requests: 88 search, 48
// query (8 of them over all executions), 48 provenance, 12 POST
// executions, 2 PUT policy, 1 POST spec, 1 DELETE spec.
var churnMix = []struct {
	k kind
	n int
}{{kSearch, 88}, {kQuery, 40}, {kQueryAll, 8}, {kProvenance, 48}, {kAddExec, 12}, {kPolicy, 2}, {kAddSpec, 1}, {kDelSpec, 1}}

// mutateChurn: reads on the wide specs beside POST executions, PUT
// policy (alternating the two variants of a churned wide spec), POST
// specs of a fresh throw-away spec and DELETE specs of the oldest one
// this client still has registered. Clients own disjoint execution and
// spec ids, so neither depends on the other's progress.
func (g *generator) mutateChurn(client, n int) []request {
	rng := g.rng(client, 5)
	search := g.searchZipf(client, n)
	counts := make([]int, len(churnMix))
	for i, m := range churnMix {
		counts[i] = m.n
	}
	lv, mix := levelDeck(rng), newDeck(rng, counts...)
	variant := make([]int, g.c.shape.churned)
	var registered []string
	nExec, nSpec := 0, 0
	writer := request{tok: g.writerToken(), level: privacy.Analyst}
	out := make([]request, 0, n)
	for i := 0; i < n; i++ {
		if client == 0 && i%saveEvery == saveEvery-1 {
			out = append(out, request{kind: kSave, method: "POST", path: "/api/v1/save", tok: g.adminToken(), level: privacy.Owner})
			continue
		}
		k := churnMix[mix.draw()].k
		if k == kDelSpec && len(registered) == 0 {
			k = kAddSpec // nothing to delete yet
		}
		r := writer
		r.kind = k
		switch k {
		case kSearch:
			r = search[i]
		case kQuery, kQueryAll, kProvenance:
			r = g.wideRead(rng, lv, client, k)
		case kAddExec:
			r.spec = g.c.wide[rng.Intn(len(g.c.wide))]
			se := g.c.specs[r.spec]
			nExec++
			e, err := se.run(fmt.Sprintf("%s-c%d-N%d", r.spec, client, nExec), g.seed*31+int64(client)*1e6+int64(nExec))
			if err != nil {
				panic(err) // the spec ran at corpus build; only a bug gets here
			}
			r.method, r.path, r.exec = "POST", "/api/v1/executions", e.ID
			r.body, _ = exec.MarshalExecution(e)
		case kPolicy:
			v := rng.Intn(g.c.shape.churned)
			variant[v] ^= 1
			r.spec = g.c.wide[v]
			r.method, r.path = "PUT", "/api/v1/policy"
			r.body, _ = json.Marshal(map[string]any{"spec": r.spec, "policy": g.c.specs[r.spec].pols[variant[v]]})
		case kAddSpec:
			nSpec++
			r.spec = fmt.Sprintf("churn-c%d-%d", client, nSpec)
			se, err := newSpecEntry(r.spec, g.seed*977+int64(client)*1e6+int64(nSpec))
			if err != nil {
				panic(err)
			}
			g.c.specs[r.spec] = se
			specJSON, _ := workflow.MarshalSpec(se.spec)
			r.method, r.path = "POST", "/api/v1/specs"
			r.body, _ = json.Marshal(map[string]any{"spec": json.RawMessage(specJSON), "policy": se.pols[0]})
			registered = append(registered, r.spec)
		case kDelSpec:
			r.spec, registered = registered[0], registered[1:]
			r.method, r.path = "DELETE", "/api/v1/specs/"+r.spec
		}
		out = append(out, r)
	}
	return out
}

// warmSearch sends one search per level so the four per-level corpora
// are built before timing.
func (g *generator) warmSearch() []request {
	var out []request
	for _, l := range levels {
		out = append(out, g.search(0, l, g.vocab[0]))
	}
	return out
}

// warmSnapshots touches every (wide execution, level) masked snapshot
// once, after the corpora.
func (g *generator) warmSnapshots() []request {
	out := g.warmSearch()
	for _, id := range g.c.wide {
		se := g.c.specs[id]
		for _, e := range se.execs {
			for _, l := range levels {
				out = append(out, g.query(0, l, id, e.ID, fmt.Sprintf("MATCH a = %q", g.vocab[0])))
			}
		}
	}
	return out
}
