// Package repo implements the provenance-aware workflow repository the
// paper envisions (Section 1): a shared store of workflow specifications
// and provenance graphs that many users — with different access levels —
// search and query. Privacy is enforced inside the query engine rather
// than by maintaining one repository copy per privilege level ("the
// alternative would be to create multiple repositories corresponding to
// different levels of access, which would lead to inconsistencies,
// inefficiency, and a lack of flexibility").
//
// The repository wires together the other packages: the privacy-classified
// inverted index (index), minimal-view keyword search
// (search), optional bucketing of the index's TF-IDF scores (rank),
// structural queries with privacy-controlled semantics (query), and
// masked provenance retrieval (datapriv + exec views).
//
// Concurrency model: state is sharded per specification. Each shard
// owns its spec, executions and installed generation behind its own
// RWMutex, so traffic against different specs never contends; what is
// derived from the spec alone (hierarchy, query tables, view plans) is
// built with the shard and lives exactly as long. Everything derived from
// the (policy, generalization ladders) pair — access views, masking engine —
// is one immutable generation object that (*shard).install builds and swaps
// in. A read takes the pointer once and decides, fills and answers from it,
// so no answer mixes two policies, and a fill that loses the race with an
// install serves only the reader that asked under the replaced generation:
// there is nothing to fence and nothing to purge. The repository level keeps
// only the shard directory, the user registry and the one structure that
// spans specs, the keyword index (index.Inverted), which publishes its
// state as atomically swapped immutable snapshots, so index reads on the
// search path acquire no lock at all and spec mutations never stall
// readers. A mutation therefore touches the shard and that index, and
// nothing else.
// Keyword search is answered and ranked from the index
// (index.Inverted.Match decides which specs match, through which
// modules and with what score at the asker's level; only the requested
// window's minimal views are decided), so a spec or policy mutation has
// one piece of ranking state to maintain: its index segment. QueryAll binds
// once per view plan and materializes its window across a bounded worker
// pool, merging deterministically.
//
// Nothing memoizes "execution E as level L may see it": every read of values
// fills it from its view plan through (*Repository).fill (the paper's
// Section 4 "materialized views vs on-the-fly" trade-off, settled on the fly
// for values, so there is nothing to keep consistent). What is shared is the
// structure: a view is held once per execution shape and prefix (the
// shard's view plans), value-free, and a snapshot is a value vector over it,
// as a stored execution is its shape's values.
//
// Lock ordering: polMu (policy-sensitive mutators) before mu (shard
// directory) before a shard's mu. Read paths never hold two locks at
// once — they resolve the shard pointer, release the directory lock,
// then lock the shard. sh.gen is written by install alone and read under
// sh.mu, once per request: through current(), or beside whatever else the
// same RLock reads (the execution a request names, the list of them, the
// seq a save records). No lock is held while a read works.
package repo

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"provpriv/internal/datapriv"
	"provpriv/internal/exec"
	"provpriv/internal/graph"
	"provpriv/internal/index"
	"provpriv/internal/obs"
	"provpriv/internal/privacy"
	"provpriv/internal/query"
	"provpriv/internal/rank"
	"provpriv/internal/search"
	"provpriv/internal/taint"
	"provpriv/internal/workflow"
)

// Sentinel errors, exposed so transport layers (internal/server) can map
// failures to protocol status codes with errors.Is instead of string
// matching.
var (
	// ErrNotFound marks lookups of unknown specs, executions or items.
	ErrNotFound = errors.New("not found")
	// ErrDenied marks requests refused by privacy policy: the entity
	// exists but is not visible at the caller's access level.
	ErrDenied = errors.New("access denied")
	// ErrUnknownUser marks requests by unregistered principals.
	ErrUnknownUser = errors.New("unknown user")
	// ErrExists marks duplicate registrations (spec or execution ids
	// already taken); the HTTP layer maps it to 409 Conflict.
	ErrExists = errors.New("already exists")
)

// shard is the unit of isolation: everything the repository knows about
// one specification, behind one lock. Spec and hierarchy are immutable once
// published, as is every generation; executions are append-only.
type shard struct {
	mu    sync.RWMutex
	spec  *workflow.Spec
	hier  *workflow.Hierarchy
	execs map[string]*exec.Stored

	// eval binds structural-query variables from tables derived from the
	// spec alone, so like hier it lives as long as the shard; what a level
	// may bind is decided per request, by the generation's policy.
	eval *query.Evaluator

	// gen is the installed generation: the (policy, ladders) pair and
	// everything derived from it. Guarded by mu; install is its only writer.
	gen *generation

	// shapes interns the executions by shape (exec.SameShape; guarded by mu)
	// and plans holds viewPlan's value-free prepared views, per (shape,
	// prefix): a plan depends on the prefix and the shard's immutable
	// hierarchy only, so it belongs to the shard, not to a generation.
	shapes *exec.Shapes
	plans  *index.LRU[planKey, *query.PreparedExec]

	// seq identifies the shard's last content mutation (executions,
	// hierarchies, policy) — guarded by mu — so Save can skip shards
	// unchanged since the last save to the same directory. Values come
	// from the repository-wide mutSeq counter, so a removed-and-re-added
	// spec id can never repeat a seq a previous Save recorded.
	seq uint64
}

// generation is one installed (policy, generalization ladders) pair with
// everything derived from it. It is immutable once install returns (an
// access step's closure is derived from the step alone, on first use), so
// whoever holds the pointer answers under exactly one policy; a replaced
// generation is collected once the reads that took it return.
type generation struct {
	// seq is the mutation seq of the install. Persistence tells by it whether
	// the saved policy is still the installed one — a number, because the
	// pointer would pin a replaced generation until the next Save.
	seq     uint64
	pol     *privacy.Policy
	ladders map[string]*datapriv.Hierarchy // optional: masking coarsens along them instead of redacting

	// steps is pol's access view per level, as the ascending steps at which
	// it changes, the first covering every level below the lowest grant;
	// need is the level pol requires to see each module, by hierarchy ordinal.
	steps []*accessStep
	need  []privacy.Level

	// engine is the taint/masking engine for (pol, ladders), built once per
	// install instead of once per request.
	engine *taint.Engine
}

// accessStep is the access view of every level from from up to the next
// step's, as ids and as the hierarchy's ordinals (what a search clips to),
// with its canonical key (workflow.Prefix.Key), whether it is
// coarser than the full expansion, and — built on first use — the graph of
// the spec expanded to it with its reachability closure. All of it is shared
// by every reader of the generation: read-only.
type accessStep struct {
	from   privacy.Level
	view   workflow.Prefix
	bits   workflow.Bits
	key    string
	zoomed bool

	once  sync.Once
	graph *graph.Graph
	reach *graph.Closure
	err   error
}

// planKey keys a shard's view plans: one per shape per distinct prefix.
type planKey struct {
	shape *exec.Shape
	view  string
}

// shardCacheCap bounds the view plans a shard retains: the memory bound.
// Nothing in them goes stale; a plan depends on the shard's hierarchy alone.
const shardCacheCap = 1024

// Repository is a concurrency-safe, per-spec-sharded store of specs,
// executions, policies and users, with privacy-aware search and query
// entry points.
type Repository struct {
	mu     sync.RWMutex
	shards map[string]*shard

	usersMu sync.RWMutex
	users   map[string]*privacy.User

	// inverted is shared across shards (one physical index serving every
	// privilege level is the paper's point) and is the only derived
	// structure the repository itself holds. It publishes immutable
	// snapshots internally: lookups are lock-free, mutations serialize
	// inside the index.
	inverted *index.Inverted

	// searches counts the searches evaluated; CacheStats is its reader.
	searches atomic.Int64 //provlint:counter

	// fills counts the enforced views fill built; taintRewritten/taintRedacted
	// count the items the taint engine rewrote / fully redacted in them. fill
	// is all read-path masking (provenance reads and provenance returns,
	// zoomed out or not), so these are counted there and nowhere else.
	fills          atomic.Int64 //provlint:counter
	taintRewritten atomic.Int64 //provlint:counter
	taintRedacted  atomic.Int64 //provlint:counter

	// saveMu guards bound, the repository's attachment to a storage
	// backend with its incremental-save bookkeeping (see persist.go).
	// mutSeq issues globally unique shard seq values.
	saveMu sync.Mutex
	bound  *boundStore
	mutSeq atomic.Uint64

	// polMu serializes the policy-sensitive mutators (AddSpec,
	// RemoveSpec, UpdatePolicy) against each other, so an in-flight
	// policy update can neither interleave with another nor re-register
	// the segment of a spec a concurrent RemoveSpec just dropped. Lock
	// order: polMu before mu.
	polMu sync.Mutex

	// sem's capacity bounds the fan-out pool (QueryAll's materialization).
	sem chan struct{}
}

// New returns an empty repository with a fan-out pool sized to the
// machine.
func New() *Repository {
	return &Repository{
		shards:   make(map[string]*shard),
		users:    make(map[string]*privacy.User),
		inverted: index.BuildInverted(nil, nil),
		sem:      make(chan struct{}, runtime.GOMAXPROCS(0)),
	}
}

// SetWorkers resizes the bounded fan-out pool (minimum 1; 1 disables
// engine-internal parallelism, the serial baseline of
// BenchmarkQueryAllParallel).
//
//provlint:ignore unserved test support: root and repo benchmarks and concurrency tests size the fan-out pool (bench_test.go, concurrent_test.go)
func (r *Repository) SetWorkers(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sem = make(chan struct{}, max(n, 1))
}

// fanOut runs fn(0..n-1), spreading calls over the repository's bounded
// worker pool. When the pool is saturated the caller runs the task
// inline, so fanOut never deadlocks under nesting and never queues
// unboundedly. Results must be written to index-addressed slots by fn;
// completion order is unspecified, slot order is deterministic.
func (r *Repository) fanOut(n int, fn func(int)) {
	r.mu.RLock()
	sem := r.sem
	r.mu.RUnlock()
	if n == 1 || cap(sem) <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				fn(i)
			}(i)
		default:
			fn(i)
		}
	}
	wg.Wait()
}

// shard returns the shard for a spec id, or nil.
func (r *Repository) shard(specID string) *shard {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.shards[specID]
}

// shardOrErr resolves a shard or reports ErrNotFound.
func (r *Repository) shardOrErr(specID string) (*shard, error) {
	sh := r.shard(specID)
	if sh == nil {
		return nil, fmt.Errorf("repo: unknown spec %q: %w", specID, ErrNotFound)
	}
	return sh, nil
}

// reader resolves the user and the shard a read of one spec names.
func (r *Repository) reader(userName, specID string) (*privacy.User, *shard, error) {
	u, err := r.User(userName)
	if err != nil {
		return nil, nil, err
	}
	sh, err := r.shardOrErr(specID)
	return u, sh, err
}

// AddSpec registers a validated spec with its policy (nil for an
// all-public policy). Indexes are updated incrementally; the shard is
// published only after its index entries exist, so readers never see a
// searchable spec they cannot resolve.
func (r *Repository) AddSpec(s *workflow.Spec, pol *privacy.Policy) error {
	sh, err := r.newShard(s, pol, nil, r.mutSeq.Add(1))
	if err != nil {
		return err
	}
	// Serialize against the other mutators (RemoveSpec, UpdatePolicy):
	// with polMu held, the duplicate check below is authoritative and the
	// index entries this call publishes cannot be clobbered by a racing
	// duplicate's rollback. Readers never take polMu, so mutation work
	// here stalls no read path.
	r.polMu.Lock()
	defer r.polMu.Unlock()
	if r.shard(s.ID) != nil {
		return fmt.Errorf("repo: spec %s already registered: %w", s.ID, ErrExists)
	}
	// Heavy incremental index maintenance runs outside the directory
	// lock: the index serializes writers internally and publishes atomic
	// snapshots, so readers on other specs are never stalled. A hit on
	// the not-yet-published shard resolves to nil and is skipped, the
	// same transient Search already tolerates for removal. Nothing past
	// this point can fail, so there is nothing to roll back.
	r.inverted.AddSpec(s, sh.gen.pol)
	r.mu.Lock()
	r.shards[s.ID] = sh
	r.mu.Unlock()
	return nil
}

// newShard validates a spec + policy pair (nil policy = all-public) and
// constructs its shard — everything derived from the spec, then the
// enforcement state for (pol, hs) at seq — without registering anything.
func (r *Repository) newShard(s *workflow.Spec, pol *privacy.Policy, hs map[string]*datapriv.Hierarchy, seq uint64) (*shard, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	h, err := workflow.NewHierarchy(s)
	if err != nil {
		return nil, err
	}
	if pol == nil {
		pol = privacy.NewPolicy(s.ID)
	}
	if err := pol.Validate(s); err != nil {
		return nil, err
	}
	sh := &shard{
		spec:   s,
		hier:   h,
		execs:  make(map[string]*exec.Stored),
		eval:   query.NewEvaluator(s),
		shapes: exec.NewShapes(),
		plans:  index.NewLRU[planKey, *query.PreparedExec](shardCacheCap),
	}
	sh.install(pol, hs, seq)
	return sh, nil
}

// install makes (pol, hs) the shard's enforcement state: a fresh generation
// replaces the installed one, and with it goes everything that one derived —
// its access steps and its engine; a fill still running under it serves only
// the reader that asked under it — while seq marks the shard dirty for Save.
// It is the only writer of sh.gen; the caller holds sh.mu, or owns a shard
// not yet published.
func (sh *shard) install(pol *privacy.Policy, hs map[string]*datapriv.Hierarchy, seq uint64) {
	gen := &generation{
		seq: seq, pol: pol, ladders: hs,
		engine: datapriv.NewMasker(pol, hs).Engine(), need: pol.ModuleNeeds(sh.hier),
	}
	// An access view changes only at the levels ViewLevels names, a grant's
	// or a hidden pair's: one step per distinct level, however far apart a
	// (wire-writable) policy puts them.
	for _, l := range append([]privacy.Level{math.MinInt}, pol.ViewLevels()...) {
		view := pol.AccessView(sh.hier, l)
		gen.steps = append(gen.steps, &accessStep{from: l, view: view, bits: sh.hier.Bits(view), key: view.Key(), zoomed: len(view) < sh.hier.Size()})
	}
	sh.gen, sh.seq = gen, seq
}

// current returns the installed generation.
func (sh *shard) current() *generation {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.gen
}

// step returns the generation's access step for level l.
func (g *generation) step(l privacy.Level) *accessStep {
	i := len(g.steps) - 1
	for g.steps[i].from > l {
		i--
	}
	return g.steps[i]
}

// closure returns the graph of the spec expanded to the step's view and its
// transitive closure: what Reaches answers from. It is derived from the view
// alone, once, by whoever asks first.
func (st *accessStep) closure(sh *shard) (*graph.Graph, *graph.Closure, error) {
	st.once.Do(func() {
		var v *workflow.View
		if v, st.err = workflow.ExpandIn(sh.spec, sh.hier, st.view); st.err != nil {
			return
		}
		st.graph = v.Graph()
		st.reach, st.err = graph.NewClosure(st.graph)
	})
	return st.graph, st.reach, st.err
}

// SpecIDs returns the registered spec ids, sorted.
func (r *Repository) SpecIDs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return slices.Sorted(maps.Keys(r.shards))
}

// Spec returns a registered spec, or nil.
func (r *Repository) Spec(id string) *workflow.Spec {
	sh := r.shard(id)
	if sh == nil {
		return nil
	}
	return sh.spec
}

// AddExecution stores a validated execution of a registered spec as its
// shape's value vector (exec.Shapes.Intern): the shard holds one graph per
// shape, e's own when it is the first of its shape, and e is only ever
// read. Only that spec's shard is locked: ingest on one spec never stalls
// queries on others.
func (r *Repository) AddExecution(e *exec.Execution) error {
	if err := e.Validate(); err != nil {
		return err
	}
	sh := r.shard(e.SpecID)
	if sh == nil {
		return fmt.Errorf("repo: execution %s references unknown spec %s: %w", e.ID, e.SpecID, ErrNotFound)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.execs[e.ID]; dup {
		return fmt.Errorf("repo: execution %s already registered: %w", e.ID, ErrExists)
	}
	sh.execs[e.ID] = sh.shapes.Intern(e)
	sh.seq = r.mutSeq.Add(1)
	return nil
}

// RemoveSpec unregisters a spec, its policy, its executions and its
// index entries. Queries against it fail afterwards. Once RemoveSpec
// returns, the index snapshots without the spec's postings are
// published: no subsequent Lookup or Search can serve a stale posting
// for it.
func (r *Repository) RemoveSpec(specID string) error {
	r.polMu.Lock()
	defer r.polMu.Unlock()
	r.mu.Lock()
	sh := r.shards[specID]
	if sh == nil {
		r.mu.Unlock()
		return fmt.Errorf("repo: unknown spec %q: %w", specID, ErrNotFound)
	}
	delete(r.shards, specID)
	r.mu.Unlock()
	// Index swaps run outside the directory lock so readers on other
	// specs never stall; polMu still fences this against UpdatePolicy
	// re-registering the segment.
	r.inverted.RemoveSpec(specID)
	return nil
}

// UpdatePolicy replaces a spec's privacy policy. A policy change can
// reclassify which levels see which modules, so the spec's index segment
// is rebuilt with the new levels — which is also all the ranking state
// there is to update — and a new generation is installed: the install is
// that pointer swap and nothing else, and every read after it fills under
// the new policy.
//
// Validation is the only failure point and precedes every install, so a
// failure leaves the old policy and indexes fully in place; no
// repository-wide lock is held, so traffic on other specs never stalls.
func (r *Repository) UpdatePolicy(specID string, pol *privacy.Policy) error {
	r.polMu.Lock()
	defer r.polMu.Unlock()
	sh, err := r.shardOrErr(specID)
	if err != nil {
		return err
	}
	if pol == nil {
		pol = privacy.NewPolicy(specID)
	}
	if err := pol.Validate(sh.spec); err != nil {
		return err
	}
	// Re-register the spec's index segment with the new module levels
	// (the index replaces postings atomically), then publish the policy
	// under the shard lock. The window between the index swap and the
	// policy install is benign: both old and new state are internally
	// consistent, and searchView serves only what the shard holds.
	r.inverted.AddSpec(sh.spec, pol)
	sh.mu.Lock()
	sh.install(pol, sh.gen.ladders, r.mutSeq.Add(1))
	sh.mu.Unlock()
	return nil
}

// executions returns the shard's executions in id order. The caller holds
// sh.mu.
func (sh *shard) executions() []*exec.Stored {
	out := slices.Collect(maps.Values(sh.execs))
	slices.SortFunc(out, func(a, b *exec.Stored) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// SetGeneralization installs generalization hierarchies for a spec's
// protected attributes: masking then coarsens values (e.g. exact SNP →
// chromosome → genome) instead of redacting them outright, preserving
// utility for under-privileged users. Hierarchies change what masking
// emits, so they are installed as a new generation.
func (r *Repository) SetGeneralization(specID string, hs map[string]*datapriv.Hierarchy) error {
	sh, err := r.shardOrErr(specID)
	if err != nil {
		return err
	}
	// The shard lock alone pairs these ladders with the policy current
	// at install time (UpdatePolicy installs under it too).
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.install(sh.gen.pol, hs, r.mutSeq.Add(1))
	return nil
}

// ExecutionIDs lists executions of a spec, sorted.
func (r *Repository) ExecutionIDs(specID string) []string {
	sh := r.shard(specID)
	if sh == nil {
		return nil
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return slices.Sorted(maps.Keys(sh.execs))
}

// AddUser registers (or replaces) a user.
func (r *Repository) AddUser(u privacy.User) {
	r.usersMu.Lock()
	defer r.usersMu.Unlock()
	r.users[u.Name] = &u
}

// User looks up a registered user.
func (r *Repository) User(name string) (*privacy.User, error) {
	r.usersMu.RLock()
	defer r.usersMu.RUnlock()
	u := r.users[name]
	if u == nil {
		return nil, fmt.Errorf("repo: unknown user %q: %w", name, ErrUnknownUser)
	}
	cp := *u
	return &cp, nil
}

// Users returns the registered users, sorted by name.
func (r *Repository) Users() []privacy.User {
	r.usersMu.RLock()
	defer r.usersMu.RUnlock()
	out := make([]privacy.User, 0, len(r.users))
	for _, u := range r.users {
		out = append(out, *u)
	}
	slices.SortFunc(out, func(a, b privacy.User) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// SearchHit is one ranked repository search result.
type SearchHit struct {
	SpecID string
	Score  float64
	Result *search.Result
}

// SearchOptions tunes repository search.
type SearchOptions struct {
	// Buckets > 0 publishes bucketized scores (privacy-aware ranking).
	Buckets int
	// Limit/Offset window the ranked result list engine-side: only the
	// specs inside [Offset, Offset+Limit) get their minimal view built;
	// the rest are counted from the index's answer and never touched.
	// Limit 0 means unlimited (full materialization).
	Limit, Offset int
}

// Search is SearchPageCtx without a window or a context: it always
// returns the full ranked list (Limit/Offset in opts are ignored).
func (r *Repository) Search(userName, queryText string, opts SearchOptions) ([]SearchHit, error) {
	opts.Limit, opts.Offset = 0, 0
	hits, _, err := r.SearchPageCtx(context.Background(), userName, queryText, opts)
	return hits, err
}

// SearchPageCtx runs a keyword query as the given user, with the
// pagination window pushed into the engine. The inverted index decides
// which specs have, for every phrase, a module visible at the user's level
// carrying it, and scores each by TF-IDF over what the level sees
// (index.Inverted.Match: no spec touched, no evidence built), so the full
// result set, its total and its order (score descending, spec id
// ascending) are known before any spec is touched. Only the specs inside
// [Offset, Offset+Limit) then get their evidence and their minimal view,
// clipped to the user's access view. A deep repository therefore pays per
// page, not per hit, and total is exact (TestMatchesAgreesWithSearch holds
// the index to its oracles, TestSearchPageTilesFullSearch pins the tiling).
//
// The view pass checks ctx between specs and abandons the search early
// when the caller is gone; a canceled search returns ctx's error. The
// window's hits are decided inline, not on the worker pool: each is a few
// lookups in tables the shard holds (nothing is expanded).
func (r *Repository) SearchPageCtx(ctx context.Context, userName, queryText string, opts SearchOptions) ([]SearchHit, int, error) {
	u, err := r.User(userName)
	if err != nil {
		return nil, 0, err
	}
	phrases := search.ParseQuery(queryText)
	if len(phrases) == 0 {
		return nil, 0, fmt.Errorf("repo: empty query")
	}
	if opts.Limit < 0 || opts.Offset < 0 {
		return nil, 0, fmt.Errorf("repo: negative pagination window")
	}
	r.searches.Add(1)

	// Match reads one published snapshot — no lock, no spec touched — so
	// concurrent spec mutations never stall the search path. A spec the
	// index lists but the directory does not (registration or removal in
	// flight) counts as a non-match.
	_, matchSpan := obs.StartSpan(ctx, "search.index.match")
	matched := r.inverted.Match(phrases, u.Level)
	r.mu.RLock()
	order := slices.DeleteFunc(matched.Specs, func(m index.SpecMatch) bool { return r.shards[m.Spec.ID] == nil })
	r.mu.RUnlock()
	if opts.Buckets > 0 {
		// A bucket's bounds come from the score range over every spec the
		// level can score, matching or not, so only here is that list built.
		published := make(map[string]float64)
		for _, rk := range rank.Bucketize(matched.RankAll(), opts.Buckets) {
			published[rk.Doc] = rk.Score
		}
		for i := range order {
			order[i].Score = published[order[i].Spec.ID]
		}
	}
	matchSpan.End()

	// The final hit order (score descending, spec id ascending) is known
	// before any view is built, so the window is a slice of it.
	slices.SortFunc(order, func(a, b index.SpecMatch) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return strings.Compare(a.Spec.ID, b.Spec.ID)
	})
	total := len(order)
	window := order[min(opts.Offset, total):]
	if opts.Limit > 0 && len(window) > opts.Limit {
		window = window[:opts.Limit]
	}

	// Decide minimal views for the window only. A hit whose shard
	// no longer matches by now is dropped; total keeps the index's count.
	hits := make([]SearchHit, 0, len(window))
	names := search.PhraseNames(phrases)
	_, viewSpan := obs.StartSpan(ctx, "search.views")
	for _, m := range window {
		if ctx.Err() != nil {
			break
		}
		if res := r.searchView(&matched, m, phrases, names, u.Level); res != nil {
			hits = append(hits, SearchHit{SpecID: m.Spec.ID, Score: m.Score, Result: res})
		}
	}
	viewSpan.End()
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	return hits, total, nil
}

// searchView decides the minimal view of m, one of ms.Specs, from the
// state the shard holds now (nil when the shard is gone or no longer
// matches). The index's evidence — ordinals of the shard's hierarchy — is
// built and handed over only when its segment was built from the very
// (spec, policy) pointers the shard holds. Otherwise — a policy update or
// re-registration slipped between the index read and this call — the
// search scans the shard's own state, so the answer always describes one
// incarnation under one policy, at worst coarser than the index promised.
func (r *Repository) searchView(ms *index.Matches, m index.SpecMatch, phrases [][]string, names []string, level privacy.Level) *search.Result {
	sh := r.shard(m.Spec.ID)
	if sh == nil {
		return nil
	}
	gen := sh.current()
	access := gen.step(level)
	var res *search.Result
	var err error
	if m.Spec == sh.spec && m.Policy == gen.pol {
		res, err = search.SearchMatched(sh.spec, sh.hier, names, ms.Modules(m), gen.need, access.bits, level)
	} else {
		res, err = search.SearchWithAccess(sh.spec, phrases, access.view, gen.pol, level)
	}
	if err != nil {
		return nil // the shard's state no longer matches: drop the hit
	}
	return res
}

// CacheStats reports every search evaluated as a miss of a result cache
// the repository no longer has. It stays only because cmd/provload, which
// BENCHMARK.json freezes, classifies a replayed search by its Δ.
func (r *Repository) CacheStats() (hits, misses int) {
	return 0, int(r.searches.Load())
}

// queryContext resolves what the per-execution query paths start from: the
// user, the shard, and — read under one lock — the execution and the
// generation the whole request is then decided under.
func (r *Repository) queryContext(userName, specID, execID string) (*privacy.User, *shard, *generation, *exec.Stored, error) {
	u, sh, err := r.reader(userName, specID)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	sh.mu.RLock()
	e, gen := sh.execs[execID], sh.gen
	sh.mu.RUnlock()
	if e == nil {
		return nil, nil, nil, nil, fmt.Errorf("repo: unknown execution %q of %s: %w", execID, specID, ErrNotFound)
	}
	return u, sh, gen, e, nil
}

// fill builds the enforced view of e for level under gen on plan, the view
// plan of e's shape at level's access view or at a zoom-out of it: the one
// place an execution view is masked, for every read of values and every
// route alike. It derives no structure: e's values are gathered into the
// plan's slots, and taint.MaskInPlace masks that vector for the asker alone
// — sources e's values above level, targets the view's slots, ancestry the
// shape's — so fills at two levels share only the plan, an owner's analyses
// nothing, and e is only read. The snapshot is the caller's; what it masked
// is counted here and nowhere else.
// TestColdFillMatchesStagedPipeline holds the snapshots to the staged
// exec.Collapse → Engine.Apply → query.PrepareExec.
func (r *Repository) fill(ctx context.Context, gen *generation, plan *query.PreparedExec, e *exec.Stored, level privacy.Level) (query.Snapshot, error) {
	ctx, span := obs.StartSpan(ctx, "view.fill")
	defer span.End()
	_, collapse := obs.StartSpan(ctx, "view.collapse")
	snap, err := plan.Fill(e, maskedName(e, level))
	collapse.End()
	if err != nil {
		return query.Snapshot{}, err
	}
	_, analyze := obs.StartSpan(ctx, "taint.analyze")
	e.Shape().Ancestry() // derived on the shape's first fill; the mask reads it
	analyze.End()
	_, apply := obs.StartSpan(ctx, "mask.apply")
	rep := gen.engine.MaskInPlace(&snap.Vector, plan.Layout(), e, level)
	apply.End()
	r.fills.Add(1)
	r.taintRewritten.Add(int64(rep.Rewritten))
	r.taintRedacted.Add(int64(rep.TaintRedacted))
	return snap, nil
}

// maskedName names e's view at level, filled or not, as the staged pipeline does.
func maskedName(e *exec.Stored, level privacy.Level) string {
	return e.ID + "/view/masked@" + level.String()
}

// snapshotFor returns what q is answered from for e at level at prefix (Key
// key): the view plan, named as its fill would be, and — for a provenance
// return, the one that reads values — filled for the call.
func (r *Repository) snapshotFor(ctx context.Context, sh *shard, gen *generation, q *query.Query, e *exec.Stored, level privacy.Level, prefix workflow.Prefix, key string) (query.Snapshot, error) {
	plan, err := sh.viewPlan(e.Shape(), prefix, key)
	if err != nil || q.Return != query.ReturnProvenance {
		return query.Snapshot{Plan: plan, ID: maskedName(e, level)}, err
	}
	return r.fill(ctx, gen, plan, e, level)
}

// viewPlan returns the value-free prepared view of a shape at prefix (Key
// key), built on first use from the shape's representative; fills and
// zoom-out steps share the shard's plans. This is the only place a view is
// collapsed and prepared, and so where an invalid or cyclic one is refused:
// exec.CollapseIn validates the view and hands its graph to
// query.PreparePlan, whose topological sort rejects a cycle. The plan keeps
// no value: no string of one execution is reachable from another's.
func (sh *shard) viewPlan(shape *exec.Shape, prefix workflow.Prefix, key string) (*query.PreparedExec, error) {
	pk := planKey{shape: shape, view: key}
	if plan, ok := sh.plans.Get(pk); ok {
		return plan, nil
	}
	view, g, err := exec.CollapseIn(shape.Rep(), sh.hier, prefix)
	if err != nil {
		return nil, err
	}
	plan, err := query.PreparePlan(view, g, shape)
	if err != nil {
		return nil, err
	}
	view.Blank()
	sh.plans.Put(pk, plan)
	return plan, nil
}

// Query evaluates a structural query (see query.Parse) against one execution
// at the user's access view, on snapshotFor's snapshot.
func (r *Repository) Query(userName, specID, execID, queryText string) (*query.Answer, error) {
	q, err := query.Parse(queryText)
	if err != nil {
		return nil, err
	}
	u, sh, gen, e, err := r.queryContext(userName, specID, execID)
	if err != nil {
		return nil, err
	}
	access := gen.step(u.Level)
	snap, err := r.snapshotFor(context.Background(), sh, gen, q, e, u.Level, access.view, access.key)
	if err != nil {
		return nil, err
	}
	return sh.eval.EvaluateSnapshot(q, snap, gen.pol, u.Level, access.zoomed)
}

// Reaches answers the paper's core structural-privacy question — "does
// module from contribute to the data produced by module to?" — as
// visible to the user:
//
//   - modules invisible at the user's access view are resolved to the
//     composite module that represents them, so the answer is at the
//     granularity the user is entitled to; if both endpoints collapse
//     into the same composite, the relationship is not externally
//     visible and the answer is false — which is how a pair the policy
//     hides from the user answers, since its composite is withdrawn
//     from the access view (privacy.Policy.AccessView);
//   - a module is not its own contributor: from == to answers false.
func (r *Repository) Reaches(userName, specID, from, to string) (bool, error) {
	u, sh, err := r.reader(userName, specID)
	if err != nil {
		return false, err
	}
	h := sh.hier
	access := sh.current().step(u.Level)
	for _, id := range []string{from, to} {
		if m, _ := h.Module(id); m == nil {
			return false, fmt.Errorf("repo: unknown module %q: %w", id, ErrNotFound)
		}
	}
	if from == to {
		return false, nil // decided here: the closure below is reflexive
	}
	g, reach, err := access.closure(sh)
	if err != nil {
		return false, err
	}
	rf, rt := visibleRepr(h, g, from, access.view), visibleRepr(h, g, to, access.view)
	if rf == graph.Invalid || rt == graph.Invalid {
		return false, fmt.Errorf("repo: module %q or %q not resolvable in view", from, to)
	}
	if rf == rt {
		return false, nil // inside one composite: not externally visible
	}
	return reach.Reach(rf, rt), nil
}

// visibleRepr maps a module of the spec to the node of g, the graph of the
// spec expanded to the access view, that represents it: its own when visible,
// else that of the via-module of the first workflow on its own workflow's root
// chain outside the view; graph.Invalid when there is none.
func visibleRepr(h *workflow.Hierarchy, g *graph.Graph, moduleID string, access workflow.Prefix) graph.NodeID {
	if id := g.Lookup(moduleID); id != graph.Invalid {
		return id
	}
	_, in := h.Module(moduleID)
	for _, w := range h.Chain(in.ID) {
		if !access.Contains(w) {
			return g.Lookup(h.ViaModule(w))
		}
	}
	return graph.Invalid
}

// QueryZoomOut evaluates a structural query with the paper's gradual
// zoom-out strategy (Section 4): query.ZoomOut coarsens the view, reading
// each step's plan, until it leaks nothing; the query is answered once, on
// that view (snapshotFor: filled for the user only for a provenance return).
// Steps counts the zoom-outs.
func (r *Repository) QueryZoomOut(userName, specID, execID, queryText string) (*query.ZoomOutResult, error) {
	q, err := query.Parse(queryText)
	if err != nil {
		return nil, err
	}
	u, sh, gen, e, err := r.queryContext(userName, specID, execID)
	if err != nil {
		return nil, err
	}
	prefix, steps, err := query.ZoomOut(sh.hier, gen.step(u.Level).view, gen.pol, u.Level, func(p workflow.Prefix) ([]*exec.Node, error) {
		plan, err := sh.viewPlan(e.Shape(), p, p.Key())
		if err != nil {
			return nil, err
		}
		return plan.Exec.Nodes, nil
	})
	if err != nil {
		return nil, err
	}
	snap, err := r.snapshotFor(context.Background(), sh, gen, q, e, u.Level, prefix, prefix.Key())
	if err != nil {
		return nil, err
	}
	ans, err := sh.eval.EvaluateSnapshot(q, snap, gen.pol, u.Level, steps > 0)
	if err != nil {
		return nil, err
	}
	return &query.ZoomOutResult{Answer: ans, Prefix: prefix, Steps: steps}, nil
}

// QueryAllPageCtx evaluates a structural query against every execution
// of a spec and returns the non-empty answers in execution-id order, with
// the pagination window pushed into the engine. MatchOn reads structure
// only, so it runs once per view plan (per shape), and an execution answers
// when its plan binds: total counts those. Only answers in [offset,
// offset+limit) are built (limit 0: all), on the fan-out pool, sharing
// their plan's bindings, from snapshotFor: only provenance fills. ctx is
// checked before each plan and each answer.
func (r *Repository) QueryAllPageCtx(ctx context.Context, userName, specID, queryText string, limit, offset int) ([]*query.Answer, int, error) {
	q, err := query.Parse(queryText)
	if err != nil {
		return nil, 0, err
	}
	if limit < 0 || offset < 0 {
		return nil, 0, fmt.Errorf("repo: negative pagination window")
	}
	u, sh, err := r.reader(userName, specID)
	if err != nil {
		return nil, 0, err
	}
	// The generation is read once, so the whole response is decided under the
	// one policy live when the call began, however many installs it straddles.
	sh.mu.RLock()
	execs, gen := sh.executions(), sh.gen
	sh.mu.RUnlock()
	access := gen.step(u.Level)

	_, matchSpan := obs.StartSpan(ctx, "query.fanout.match")
	bound := make(map[*exec.Shape]*query.Answer)
	var hits []*exec.Stored
	for _, e := range execs {
		ans, ok := bound[e.Shape()]
		if !ok {
			var plan *query.PreparedExec
			if err = ctx.Err(); err == nil {
				plan, err = sh.viewPlan(e.Shape(), access.view, access.key)
			}
			if err == nil {
				ans, err = sh.eval.MatchOn(q, query.Snapshot{Plan: plan}, gen.pol, u.Level, access.zoomed)
			}
			if err != nil {
				break
			}
			bound[e.Shape()] = ans
		}
		if len(ans.Bindings) > 0 {
			hits = append(hits, e)
		}
	}
	matchSpan.End()
	if err != nil {
		return nil, 0, err
	}
	total := len(hits)
	if offset >= total {
		return nil, total, nil
	}
	hits = hits[offset:]
	if limit > 0 && limit < len(hits) {
		hits = hits[:limit]
	}

	out := make([]*query.Answer, len(hits))
	errs := make([]error, len(hits))
	matCtx, matSpan := obs.StartSpan(ctx, "query.fanout.materialize")
	r.fanOut(len(hits), func(i int) {
		ans, snap, err := *bound[hits[i].Shape()], query.Snapshot{}, ctx.Err()
		if err == nil {
			snap, err = r.snapshotFor(matCtx, sh, gen, q, hits[i], u.Level, access.view, access.key)
		}
		if err == nil {
			ans.ExecutionID = snap.ID
			err = sh.eval.MaterializeReturn(q, &ans, snap)
		}
		out[i], errs[i] = &ans, err
	})
	matSpan.End()
	if err := errors.Join(errs...); err != nil {
		return nil, 0, err
	}
	return out, total, nil
}

// ProvenanceOptions is empty: provenance is always taint-masked. The type
// stays because cmd/provload, which BENCHMARK.json freezes, passes it.
type ProvenanceOptions struct{}

// Provenance is ProvenanceWithCtx with default options and no context,
// materialized as the induced sub-execution.
func (r *Repository) Provenance(userName, specID, execID, itemID string) (*exec.Execution, error) {
	p, err := r.ProvenanceWithCtx(context.Background(), userName, specID, execID, itemID, ProvenanceOptions{})
	return p.Execution(), err
}

// ProvenanceWithCtx returns the provenance of a data item as the user may
// see it, read from the user's enforced snapshot (fill) through its plan's
// provenance index. An item hidden by the view is reported as not visible,
// and nothing is filled for it. ctx is checked before the enforcement work:
// a disconnected client stops the rendering early.
func (r *Repository) ProvenanceWithCtx(ctx context.Context, userName, specID, execID, itemID string, _ ProvenanceOptions) (query.Provenance, error) {
	if err := ctx.Err(); err != nil {
		return query.Provenance{}, err
	}
	u, sh, gen, e, err := r.queryContext(userName, specID, execID)
	if err != nil {
		return query.Provenance{}, err
	}
	// Masking preserves the item set of the collapsed view, so visibility is
	// checked on the plan before the values are filled.
	access := gen.step(u.Level)
	plan, err := sh.viewPlan(e.Shape(), access.view, access.key)
	if err != nil {
		return query.Provenance{}, err
	}
	if _, ok := plan.Slot(itemID); !ok {
		return query.Provenance{}, fmt.Errorf("repo: item %s not visible at level %s: %w", itemID, u.Level, ErrDenied)
	}
	snap, err := r.fill(ctx, gen, plan, e, u.Level)
	if err != nil {
		return query.Provenance{}, err
	}
	return snap.Provenance(itemID)
}

// Stats summarizes repository contents and the health of its derived
// state: fills, view plans and index segment/snapshot churn. The JSON form
// is the engine's part of the /stats body.
type Stats struct {
	Specs      int `json:"specs"`
	Executions int `json:"executions"`
	Users      int `json:"users"`
	IndexTerms int `json:"index_terms"`
	Postings   int `json:"postings"`

	// IndexSegments is the number of per-spec index segments;
	// IndexSwaps counts snapshot publications (spec mutations).
	IndexSegments int   `json:"index_segments"`
	IndexSwaps    int64 `json:"index_swaps"`

	// TaintRewritten/TaintRedacted count items the taint engine
	// rewrote / redacted on read paths.
	TaintRewritten int64 `json:"taint_rewritten"`
	TaintRedacted  int64 `json:"taint_redacted"`

	// MaskedCacheMisses counts the enforced views filled: one per read of
	// values, there being no cache to hit. It keeps its name only because
	// cmd/provload, which BENCHMARK.json freezes, classifies a replayed read
	// by its Δ.
	MaskedCacheMisses int64 `json:"masked_fills"`

	// ExecShapes/ViewPlans sum the distinct execution shapes the live
	// shards have interned and the view plans they hold — gauges too;
	// Shapes breaks them out per shard. The snapshots of a shard share
	// structure per shape, so a corpus whose executions do not share shape
	// shows here (ExecShapes near Executions) before it shows in memory.
	ExecShapes int                  `json:"-"`
	ViewPlans  int                  `json:"-"`
	Shapes     map[string]ShapeStat `json:"shapes,omitempty"`
}

// ShapeStat is one shard's count of distinct execution shapes and of view
// plans held (at most shardCacheCap).
type ShapeStat struct {
	ExecShapes int `json:"exec_shapes"`
	ViewPlans  int `json:"view_plans"`
}

// Stats returns repository statistics.
func (r *Repository) Stats() Stats {
	st := Stats{Shapes: make(map[string]ShapeStat)}
	r.mu.RLock()
	st.Specs = len(r.shards)
	for id, sh := range r.shards {
		sh.mu.RLock()
		st.Executions += len(sh.execs)
		ss := ShapeStat{ExecShapes: sh.shapes.Len(), ViewPlans: sh.plans.Len()}
		sh.mu.RUnlock()
		st.ExecShapes += ss.ExecShapes
		st.ViewPlans += ss.ViewPlans
		st.Shapes[id] = ss
	}
	r.mu.RUnlock()
	r.usersMu.RLock()
	st.Users = len(r.users)
	r.usersMu.RUnlock()
	st.IndexTerms, st.Postings = r.inverted.TermCount(), r.inverted.Postings()
	st.IndexSegments, st.IndexSwaps = r.inverted.Segments(), r.inverted.Swaps()
	st.MaskedCacheMisses = r.fills.Load()
	st.TaintRewritten, st.TaintRedacted = r.taintRewritten.Load(), r.taintRedacted.Load()
	return st
}

// Describe renders a terse multi-line summary (for the CLI).
func (r *Repository) Describe() string {
	st := r.Stats()
	return fmt.Sprintf("specs: %d, executions: %d, users: %d\nindex: %d terms, %d postings\n",
		st.Specs, st.Executions, st.Users, st.IndexTerms, st.Postings)
}
