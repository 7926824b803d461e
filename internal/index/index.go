// Package index provides the access structures Section 4 of the CIDR
// 2011 paper calls for ("we must manage an index with different user
// views"): an inverted keyword index whose postings carry the minimum
// access level allowed to see them — so one physical index serves every
// privilege level, instead of one repository copy per level — and the
// bounded LRU the repository's per-shard enforced-view caches are made of
// (lru.go).
//
// The inverted index does not merely nominate candidates: Inverted.Match
// answers the whole keyword-search predicate — which specs have, for
// every query phrase, a module visible at the asker's level carrying all
// its terms — and scores each of them, from the index alone. A spec's
// segment keeps one row per module, level-first, with the module's
// hierarchy ordinal (workflow.Hierarchy.ModuleID), so "visible at L" is
// "below the segment's cut for L"; its terms keep only ascending row
// ordinals and occurrence counts. Per term the snapshot lists the specs
// carrying it by the lowest level showing it there, so the specs visible
// at L are a prefix, whose length is the term's document frequency at L.
// Terms are numbered once, so a spec is decided on integers, stopping at
// the first module carrying each phrase: Match builds no evidence, and
// Matches.Modules builds it, as hierarchy ordinals, for the hits a page
// renders. Each segment records the (spec, policy) pointers it was built
// from, so the repository can tell whether an answer still describes the
// state it holds. search.Matches and rank.Corpus remain only as the
// oracles the tests hold Match and its TF·IDF scores to.
package index

import (
	"cmp"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"provpriv/internal/privacy"
	"provpriv/internal/rank"
	"provpriv/internal/search"
	"provpriv/internal/workflow"
)

// Posting records one keyword occurrence: the module carrying the term
// and the minimum level allowed to learn the module's identity.
type Posting struct {
	SpecID   string
	ModuleID string
	Workflow string
	MinLevel privacy.Level
}

// postingCmp is the canonical posting order: MinLevel first (so a
// level-filtered lookup is a prefix scan), then spec and module ids for
// determinism.
func postingCmp(a, b Posting) int {
	return cmp.Or(cmp.Compare(a.MinLevel, b.MinLevel), strings.Compare(a.SpecID, b.SpecID), strings.Compare(a.ModuleID, b.ModuleID))
}

// segment holds one spec's modules and terms, next to the (spec, policy)
// pointers they were extracted from: a reader that holds the same two
// pointers knows the segment describes exactly the state it holds. It is
// immutable; mutating a spec replaces its segment wholesale. rows are the
// modules in canonical posting order (level, then module id); hord[o] is
// row o's hierarchy ordinal, its rank among the spec's (unique) module ids.
type segment struct {
	spec   *workflow.Spec
	pol    *privacy.Policy
	rows   []Posting
	hord   []int32
	levels []levelCount // the rows by level
	ids    []int32      // ascending term ids; ids[i] is terms[i].id
	terms  []segTerm    // sorted by id
}

// segTerm is one term of a segment: the ascending row ordinals of the
// modules carrying it, and tf, its keyword occurrences by their module's
// level — all of them, however many keywords of a module normalize to it.
type segTerm struct {
	id   int32
	ords []int32
	tf   []levelCount
}

// term returns the segment's entry for term id, or nil (also for no
// segment).
func (seg *segment) term(id int32) *segTerm {
	if seg == nil {
		return nil
	}
	if i, ok := slices.BinarySearch(seg.ids, id); ok {
		return &seg.terms[i]
	}
	return nil
}

// cut returns how many of seg's rows level sees: the rows below it.
func (seg *segment) cut(level privacy.Level) int32 { return int32(visible(seg.levels, level)) }

// levelCount is one step of a count that grows with the access level: n
// more become visible at level. visible sums the steps a level has
// reached; addAt moves one (in place, appending the level if new).
type levelCount struct {
	level privacy.Level
	n     int
}

func visible(steps []levelCount, level privacy.Level) int {
	n := 0
	for _, lc := range steps {
		if lc.level <= level {
			n += lc.n
		}
	}
	return n
}

func addAt(steps []levelCount, level privacy.Level, delta int) []levelCount {
	for i := range steps {
		if steps[i].level == level {
			steps[i].n += delta
			return steps
		}
	}
	return append(steps, levelCount{level, delta})
}

// segment extracts one spec's rows and terms, numbering new terms. policy
// may be nil (all modules public). Writers only.
func (ix *Inverted) segment(s *workflow.Spec, pol *privacy.Policy) *segment {
	type placed struct {
		Posting
		m    *workflow.Module
		hord int32
	}
	var mods []placed
	for _, wid := range s.WorkflowIDs() {
		for _, m := range s.Workflows[wid].Modules {
			level := privacy.Public
			if pol != nil {
				level = pol.ModuleLevels[m.ID]
			}
			mods = append(mods, placed{Posting: Posting{s.ID, m.ID, wid, level}, m: m})
		}
	}
	// Rank by id (the hierarchy's module ordinal), then order stably by level.
	slices.SortFunc(mods, func(a, b placed) int { return strings.Compare(a.ModuleID, b.ModuleID) })
	for i := range mods {
		mods[i].hord = int32(i)
	}
	slices.SortStableFunc(mods, func(a, b placed) int { return cmp.Compare(a.MinLevel, b.MinLevel) })
	seg := &segment{spec: s, pol: pol, rows: make([]Posting, len(mods)), hord: make([]int32, len(mods))}
	at := make(map[int32]int) // term id → index in seg.terms
	for ord, pm := range mods {
		seg.rows[ord], seg.hord[ord] = pm.Posting, pm.hord
		seg.levels = addAt(seg.levels, pm.MinLevel, 1)
		for _, kw := range pm.m.AllKeywords() {
			term := search.Normalize(kw)
			id, ok := ix.ids[term]
			if !ok {
				id = int32(len(ix.names))
				ix.ids[term] = id
				ix.names = append(ix.names, term)
			}
			i, ok := at[id]
			if !ok {
				i = len(seg.terms)
				at[id] = i
				seg.terms = append(seg.terms, segTerm{id: id})
			}
			st := &seg.terms[i]
			st.tf = addAt(st.tf, pm.MinLevel, 1)
			if n := len(st.ords); n == 0 || st.ords[n-1] != int32(ord) { // distinct keywords may normalize alike
				st.ords = append(st.ords, int32(ord))
			}
		}
	}
	slices.SortFunc(seg.terms, func(a, b segTerm) int { return cmp.Compare(a.id, b.id) })
	seg.ids = make([]int32, len(seg.terms))
	for i := range seg.terms {
		seg.ids[i] = seg.terms[i].id
	}
	return seg
}

// specEntry is one spec carrying a term: the lowest level at which the
// spec shows it, and the term's entry in the spec's segment.
type specEntry struct {
	level privacy.Level
	seg   *segment
	st    *segTerm
}

func entryCmp(a, b specEntry) int {
	return cmp.Or(cmp.Compare(a.level, b.level), strings.Compare(a.seg.spec.ID, b.seg.spec.ID))
}

// termEntry is what a snapshot keeps per term: its id (-1 for a term the
// snapshot does not hold) and one entry per spec carrying it, sorted by
// (level, spec id). The specs that show the term at level L are therefore
// a prefix, and its length is the term's document frequency at L.
type termEntry struct {
	id    int32
	specs []specEntry
}

func (e termEntry) visible(level privacy.Level) []specEntry {
	return e.specs[:sort.Search(len(e.specs), func(i int) bool { return e.specs[i].level > level })]
}

// withEntry returns a fresh copy of specs without prev's entry and, when
// add has a segment, with add in (level, spec id) order.
func withEntry(specs []specEntry, prev *segment, add specEntry) []specEntry {
	out := append(make([]specEntry, 0, len(specs)+1), specs...)
	out = slices.DeleteFunc(out, func(se specEntry) bool { return se.seg == prev })
	if add.seg != nil {
		i, _ := slices.BinarySearchFunc(out, add, entryCmp)
		out = slices.Insert(out, i, add)
	}
	return out
}

// invSnapshot is an immutable view of the whole index: the per-spec
// segments and, per term, the specs carrying it. Readers load it with one
// atomic pointer read, so everything they read describes one set of
// (spec, policy) pairs; writers build a replacement (copying the two
// directories and only the term entries they touch) and swap it in.
type invSnapshot struct {
	terms    map[string]termEntry
	segments map[string]*segment
	count    int // total postings across all terms
}

// Inverted is a privacy-classified inverted keyword index over a set of
// specifications, organized as one segment per spec behind an atomically
// published snapshot. BuildInverted makes one.
//
// Concurrency: Match, Lookup, Terms, Postings and Segments read the
// current snapshot without acquiring any lock, so a fleet of concurrent
// readers never serializes and never observes a half-applied mutation.
// AddSpec and RemoveSpec serialize on an internal mutex, rewrite only
// the term entries the mutated spec touches (sharing the rest with the
// previous snapshot), and publish the result with one atomic swap: once
// a mutation returns, every subsequent read sees it.
type Inverted struct {
	mu sync.Mutex // serializes writers; readers never take it
	// ids numbers terms (names[id] is the term) for the index's lifetime,
	// also while no spec carries one. Writers only, under mu.
	ids   map[string]int32
	names []string
	snap  atomic.Pointer[invSnapshot]
	swaps atomic.Int64
}

// BuildInverted indexes every module keyword of every spec (distinct ids).
// policies (keyed by spec id, may be nil or sparse) supply module privacy
// levels; unlisted modules are public.
func BuildInverted(specs []*workflow.Spec, policies map[string]*privacy.Policy) *Inverted {
	ix := &Inverted{ids: make(map[string]int32)}
	snap := &invSnapshot{terms: make(map[string]termEntry), segments: make(map[string]*segment, len(specs))}
	for _, s := range specs {
		snap.segments[s.ID] = ix.segment(s, policies[s.ID])
	}
	byID := make([][]specEntry, len(ix.names))
	for _, seg := range snap.segments {
		for i := range seg.terms {
			st := &seg.terms[i]
			byID[st.id] = append(byID[st.id], specEntry{seg.rows[st.ords[0]].MinLevel, seg, st})
			snap.count += len(st.ords)
		}
	}
	for id, specs := range byID {
		slices.SortFunc(specs, entryCmp)
		snap.terms[ix.names[id]] = termEntry{int32(id), specs}
	}
	ix.snap.Store(snap)
	return ix
}

// AddSpec indexes one more spec (replacing its postings if already
// indexed, so a policy change re-registers cleanly). Cost is
// O(index terms) for the snapshot map copy plus O(specs carrying them)
// for each term the spec appears in; entries of untouched terms are
// shared with the previous snapshot, not copied.
func (ix *Inverted) AddSpec(s *workflow.Spec, pol *privacy.Policy) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.publish(s.ID, ix.segment(s, pol))
}

// RemoveSpec drops every posting of the given spec id. Only the term
// entries the spec itself occupies are rewritten — O(spec's own terms),
// not a scan over every posting in the index.
func (ix *Inverted) RemoveSpec(specID string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.snap.Load().segments[specID] == nil {
		return
	}
	ix.publish(specID, nil)
}

// publish installs (seg != nil) or removes (seg == nil) the segment of
// one spec and swaps in a snapshot reflecting it: every term of the old
// segment loses its entry, every term of seg gains one. Caller holds
// ix.mu.
func (ix *Inverted) publish(specID string, seg *segment) {
	old := ix.snap.Load()
	prev := old.segments[specID]
	terms := maps.Clone(old.terms) // entries are shared; touched ones are replaced
	count := old.count
	update := func(id int32) {
		var add specEntry
		if st := seg.term(id); st != nil {
			add = specEntry{seg.rows[st.ords[0]].MinLevel, seg, st}
		}
		name := ix.names[id]
		if specs := withEntry(terms[name].specs, prev, add); len(specs) > 0 {
			terms[name] = termEntry{id, specs}
		} else {
			delete(terms, name)
		}
	}
	if prev != nil {
		for i := range prev.terms {
			count -= len(prev.terms[i].ords)
			update(prev.terms[i].id)
		}
	}
	if seg != nil {
		for i := range seg.terms {
			count += len(seg.terms[i].ords)
			if prev.term(seg.terms[i].id) == nil {
				update(seg.terms[i].id)
			}
		}
	}

	segments := maps.Clone(old.segments)
	if seg == nil {
		delete(segments, specID)
	} else {
		segments[specID] = seg
	}
	ix.snap.Store(&invSnapshot{terms: terms, segments: segments, count: count})
	ix.swaps.Add(1)
}

// Lookup returns the postings for term visible at the given level, in
// canonical order, from the rows of the specs that show the term there. It
// reads the snapshot with one atomic load, so writers never stall it.
func (ix *Inverted) Lookup(term string, level privacy.Level) []Posting {
	var out []Posting
	for _, se := range ix.snap.Load().terms[search.Normalize(term)].visible(level) {
		for _, o := range se.st.ords {
			if p := se.seg.rows[o]; p.MinLevel <= level {
				out = append(out, p)
			}
		}
	}
	slices.SortFunc(out, postingCmp)
	return out
}

// SpecMatch is one spec the index found to satisfy a whole query at a
// level; Matches.Modules builds its evidence.
type SpecMatch struct {
	// Spec and Policy (nil when the spec was indexed without one) are the
	// pointers the spec's segment was built from: its evidence describes
	// exactly this pair, and does not apply to any other.
	Spec   *workflow.Spec
	Policy *privacy.Policy
	// Score is the spec's TF·IDF for the query over what the level sees:
	// Σ_t tf·log(1 + N/df) over the query's terms in order, repeats
	// included — bit for bit what a rank.Corpus holding every indexed
	// spec's level-visible keywords scores it.
	Score float64
	seg   *segment
}

// Matches is Match's answer: the matching specs (the caller's to reorder),
// and the query's terms as one snapshot holds them, so that everything
// derived from one answer (RankAll, Modules) describes one index state.
type Matches struct {
	Specs []SpecMatch

	level   privacy.Level
	phrases [][]string  // the query's phrases (only their lengths are read)
	terms   []queryTerm // the query's terms, flattened in order
	sts     []*segTerm  // a segment's entries for terms: scratch
	ev      [][]int32   // Modules' answer: scratch
	ords    []int32
}

// queryTerm is one term of a query: its snapshot entry and its idf.
type queryTerm struct {
	termEntry
	idf float64
}

// score is the TF·IDF of a segment from sts, its entries for the query's
// terms (nil for one it lacks, whose tf 0 adds nothing); the summation
// order is rank.Corpus's, so the float is too.
func (ms *Matches) score(sts []*segTerm) float64 {
	var s float64
	for i, st := range sts {
		if st != nil {
			s += float64(visible(st.tf, ms.level)) * ms.terms[i].idf
		}
	}
	return s
}

// RankAll scores every spec in which the level sees some query term —
// matching or not — by descending score, ties by spec id: the ranking
// rank.Corpus.Rank returns, whose range rank.Bucketize quantizes over.
func (ms *Matches) RankAll() []rank.Ranked {
	var out []rank.Ranked
	seen := make(map[*segment]bool)
	sts := make([]*segTerm, len(ms.terms))
	for _, e := range ms.terms {
		for _, se := range e.visible(ms.level) {
			if !seen[se.seg] {
				seen[se.seg] = true
				for i := range sts {
					sts[i] = se.seg.term(ms.terms[i].id)
				}
				out = append(out, rank.Ranked{Doc: se.seg.spec.ID, Score: ms.score(sts)})
			}
		}
	}
	rank.Sort(out)
	return out
}

// Match answers the keyword-search predicate from the index alone: it
// returns, in no particular order, every spec in which each phrase is
// carried by at least one module visible at level — the specs for which
// search.Matches holds under the (spec, policy) pairs the index was fed —
// each with its score. phrases are the non-empty normalized term lists
// search.ParseQuery produces, kept by the answer: read-only. An empty
// query or phrase matches nothing.
//
// Each query term is looked up by name once. A matching spec shows the
// first term of every phrase, so the candidates are the specs showing the
// rarest such term at level, each decided inside its segment, where terms
// are reached by id, and scored from the entries the decision found.
func (ix *Inverted) Match(phrases [][]string, level privacy.Level) Matches {
	snap := ix.snap.Load()
	ms := Matches{level: level, phrases: phrases}
	if len(phrases) == 0 || slices.ContainsFunc(phrases, func(p []string) bool { return len(p) == 0 }) {
		return ms
	}
	var drive []specEntry
	for i, phrase := range phrases {
		for j, t := range phrase {
			e, ok := snap.terms[t]
			if !ok {
				e.id = -1
			}
			vis := e.visible(level)
			if j == 0 && (i == 0 || len(vis) < len(drive)) {
				drive = vis
			}
			ms.terms = append(ms.terms, queryTerm{e, rank.IDF(len(snap.segments), len(vis))})
		}
	}
	ms.sts = make([]*segTerm, len(ms.terms))
	for _, c := range drive {
		if c.seg.decide(ms.terms, phrases, c.seg.cut(level), ms.sts) {
			if ms.Specs == nil {
				ms.Specs = make([]SpecMatch, 0, len(drive))
			}
			ms.Specs = append(ms.Specs, SpecMatch{c.seg.spec, c.seg.pol, ms.score(ms.sts), c.seg})
		}
	}
	return ms
}

// decide reports whether seg carries every phrase (terms are theirs,
// flattened) in a row below cut, setting sts[i] to seg's entry for terms[i].
func (seg *segment) decide(terms []queryTerm, phrases [][]string, cut int32, sts []*segTerm) bool {
	off := 0
	for _, p := range phrases {
		ps := sts[off : off+len(p)]
		for j := range ps {
			if ps[j] = seg.term(terms[off+j].id); ps[j] == nil {
				return false
			}
		}
		if carrier(ps, cut, 0) < 0 {
			return false
		}
		off += len(p)
	}
	return true
}

// carrier returns the first position, from i on, in sts[0].ords of a row
// below cut that every other entry of sts holds too, or -1.
func carrier(sts []*segTerm, cut int32, i int) int {
	for first := sts[0].ords; i < len(first) && first[i] < cut; i++ {
		all := true
		for _, st := range sts[1:] {
			if _, ok := slices.BinarySearch(st.ords, first[i]); !ok {
				all = false
				break
			}
		}
		if all {
			return i
		}
	}
	return -1
}

// Modules returns the evidence of m, one of ms.Specs: per query phrase,
// the hierarchy ordinals of the visible modules carrying all its terms, in
// row order, never empty. Its storage is reused: it holds until the next call.
func (ms *Matches) Modules(m SpecMatch) [][]int32 {
	cut, off := m.seg.cut(ms.level), 0
	if !m.seg.decide(ms.terms, ms.phrases, cut, ms.sts) {
		return nil
	}
	if ms.ev == nil {
		ms.ev, ms.ords = make([][]int32, 0, len(ms.phrases)), make([]int32, 0, 64)
	}
	ev, ords := ms.ev[:0], ms.ords[:0]
	for _, p := range ms.phrases {
		start, sts := len(ords), ms.sts[off:off+len(p)]
		for i := carrier(sts, cut, 0); i >= 0; i = carrier(sts, cut, i+1) {
			ords = append(ords, m.seg.hord[sts[0].ords[i]])
		}
		ev, off = append(ev, ords[start:len(ords):len(ords)]), off+len(p)
	}
	ms.ev, ms.ords = ev, ords
	return ev
}

// Postings returns the total number of postings (for size accounting).
func (ix *Inverted) Postings() int {
	return ix.snap.Load().count
}

// TermCount returns the number of distinct indexed terms in O(1) —
// unlike Terms, it neither copies nor sorts (for stats/metrics paths).
func (ix *Inverted) TermCount() int {
	return len(ix.snap.Load().terms)
}

// Segments returns the number of per-spec segments currently indexed.
// Like every other read it loads the snapshot and takes no lock, so a
// stats or metrics scrape never queues behind an index mutation.
func (ix *Inverted) Segments() int {
	return len(ix.snap.Load().segments)
}

// Swaps returns how many snapshot publications (spec mutations) the
// index has performed — a churn counter for the metrics endpoint.
func (ix *Inverted) Swaps() int64 {
	return ix.swaps.Load()
}
