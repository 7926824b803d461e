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
// its terms, and which modules those are — and scores each of them, from
// the postings alone. A spec's segment holds its postings per term sorted
// level-first, so "visible at level L" is a prefix of every list, and per
// term the snapshot lists the specs carrying it by the lowest level that
// shows it there, so the specs visible at L are a prefix too. Terms are
// numbered by a grow-only dictionary and a segment's modules by posting
// order, so once a query's terms are looked up by name a spec is decided
// on integers. Each segment records the (spec, policy) pointers it was
// built from, so the repository can tell whether an answer still
// describes the state it holds. The TF·IDF score of a spec at a level is
// a function of the same prefixes — term frequency is the occurrence
// counts beside the segment's visible postings, document frequency the
// length of the term's visible prefix of specs, N the number of segments.
// search.Matches, the per-module scan, and rank.Corpus, the per-level
// document store, remain only as the oracles the tests hold Match to.
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

// ModuleRef names the posting's module the way search.SearchMatched takes
// it, so a matched spec's posting lists are handed over as they are.
func (p Posting) ModuleRef() (moduleID, workflowID string) { return p.ModuleID, p.Workflow }

// postingLess is the canonical posting order: MinLevel first (so a
// level-filtered lookup is a prefix scan), then spec and module ids for
// determinism.
func postingLess(a, b Posting) bool {
	if a.MinLevel != b.MinLevel {
		return a.MinLevel < b.MinLevel
	}
	if a.SpecID != b.SpecID {
		return a.SpecID < b.SpecID
	}
	return a.ModuleID < b.ModuleID
}

// segment holds one spec's postings by term, next to the (spec, policy)
// pointers they were extracted from: a reader that holds the same two
// pointers knows the postings describe exactly the state it holds. It is
// immutable; mutating a spec replaces its segment wholesale. The spec's
// modules are numbered in canonical posting order (level, then module id),
// so a term's postings and their ordinals ascend together.
type segment struct {
	spec  *workflow.Spec
	pol   *privacy.Policy
	ids   []int32   // ascending term ids; ids[i] is terms[i].id
	terms []segTerm // sorted by id
}

// segTerm is one term of a segment: the postings of the modules carrying
// it, their ordinals (ords[i] is postings[i]'s), and tf, the term's keyword
// occurrences by the level of the module carrying them — all of them, where
// a posting stands for a module however many keywords normalize to it.
type segTerm struct {
	id       int32
	postings []Posting
	ords     []int32
	tf       []levelCount
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

// segment extracts one spec's postings, numbering new terms. policy may be
// nil (all modules public). Writers only.
func (ix *Inverted) segment(s *workflow.Spec, pol *privacy.Policy) *segment {
	type placed struct {
		m     *workflow.Module
		wid   string
		level privacy.Level
	}
	var mods []placed
	for _, wid := range s.WorkflowIDs() {
		for _, m := range s.Workflows[wid].Modules {
			level := privacy.Public
			if pol != nil {
				level = pol.ModuleLevels[m.ID]
			}
			mods = append(mods, placed{m, wid, level})
		}
	}
	slices.SortFunc(mods, func(a, b placed) int {
		return cmp.Or(cmp.Compare(a.level, b.level), strings.Compare(a.m.ID, b.m.ID))
	})
	seg := &segment{spec: s, pol: pol}
	at := make(map[int32]int) // term id → index in seg.terms
	for ord, pm := range mods {
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
			st.tf = addAt(st.tf, pm.level, 1)
			if n := len(st.ords); n == 0 || st.ords[n-1] != int32(ord) { // distinct keywords may normalize alike
				st.ords = append(st.ords, int32(ord))
				st.postings = append(st.postings, Posting{SpecID: s.ID, ModuleID: pm.m.ID, Workflow: pm.wid, MinLevel: pm.level})
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
// add is non-nil, with *add in (level, spec id) order.
func withEntry(specs []specEntry, prev *segment, add *specEntry) []specEntry {
	out := append(make([]specEntry, 0, len(specs)+1), specs...)
	out = slices.DeleteFunc(out, func(se specEntry) bool { return se.seg == prev })
	if add != nil {
		i, _ := slices.BinarySearchFunc(out, *add, entryCmp)
		out = slices.Insert(out, i, *add)
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
			byID[st.id] = append(byID[st.id], specEntry{st.postings[0].MinLevel, seg, st})
			snap.count += len(st.postings)
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
		var add *specEntry
		if st := seg.term(id); st != nil {
			add = &specEntry{st.postings[0].MinLevel, seg, st}
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
			count -= len(prev.terms[i].postings)
			update(prev.terms[i].id)
		}
	}
	if seg != nil {
		for i := range seg.terms {
			count += len(seg.terms[i].postings)
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
// canonical order, assembled from the specs that show the term there. It
// reads the snapshot with one atomic load, so writers never stall it.
func (ix *Inverted) Lookup(term string, level privacy.Level) []Posting {
	var out []Posting
	for _, se := range ix.snap.Load().terms[search.Normalize(term)].visible(level) {
		for _, p := range se.st.postings {
			if p.MinLevel > level {
				break
			}
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return postingLess(out[i], out[j]) })
	return out
}

// SpecMatch is one spec the index found to satisfy a whole query at a
// level, with the evidence: for every phrase, the modules that carry it.
type SpecMatch struct {
	// Spec and Policy are the pointers the spec's segment was built from
	// (Policy is nil when the spec was indexed without one). Phrases
	// describes exactly this pair; a caller holding a different pair for
	// the same spec id must not apply Phrases to it.
	Spec   *workflow.Spec
	Policy *privacy.Policy
	// Phrases[i] holds, for the i-th query phrase, the posting of every
	// module with MinLevel ≤ level that carries all the phrase's terms —
	// never empty. The slices may alias the index's own lists: read-only.
	Phrases [][]Posting
	// Score is the spec's TF·IDF for the query over what the level sees:
	// Σ_t tf·log(1 + N/df) over the query's terms in order, repeats
	// included — bit for bit what a rank.Corpus holding every indexed
	// spec's level-visible keywords scores it.
	Score float64
}

// Matches is Match's answer: the matching specs, and the snapshot they
// were read from, so that everything derived from one answer (RankAll)
// describes the same state of the index.
type Matches struct {
	Specs []SpecMatch

	snap  *invSnapshot
	level privacy.Level
	terms []termEntry // the query's terms, flattened in order
	idf   []float64   // idf[i] belongs to terms[i]
}

// score is the TF·IDF of one segment for the query; the summation order
// is rank.Corpus's, so the float is too (a term the segment lacks adds
// tf 0, so skipping it leaves the sum as it is).
func (ms *Matches) score(seg *segment) float64 {
	var s float64
	for i, e := range ms.terms {
		if st := seg.term(e.id); st != nil {
			s += float64(visible(st.tf, ms.level)) * ms.idf[i]
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
	for _, e := range ms.terms {
		for _, se := range e.visible(ms.level) {
			if !seen[se.seg] {
				seen[se.seg] = true
				out = append(out, rank.Ranked{Doc: se.seg.spec.ID, Score: ms.score(se.seg)})
			}
		}
	}
	rank.Sort(out)
	return out
}

// Match answers the keyword-search predicate from the postings alone: it
// returns, in no particular order, every spec in which each phrase is
// carried by at least one module visible at level — the specs for which
// search.Matches holds under the (spec, policy) pairs the index was fed —
// without touching a spec or building a per-module term set, each with
// its score. phrases are the non-empty normalized term lists
// search.ParseQuery produces; an empty query or phrase matches nothing.
//
// Each query term is looked up by name once. A matching spec shows the
// first term of every phrase, so the candidates are the specs showing the
// rarest such term at level, each decided and scored inside its segment,
// where terms are reached by id. Everything is read from one snapshot.
func (ix *Inverted) Match(phrases [][]string, level privacy.Level) Matches {
	snap := ix.snap.Load()
	ms := Matches{snap: snap, level: level}
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
			ms.terms = append(ms.terms, e)
			ms.idf = append(ms.idf, rank.IDF(len(snap.segments), len(vis)))
		}
	}
	// Every match's Phrases, and its multi-term phrases' postings, are carved
	// from two append-only arrays; a candidate that fails gives its tail back.
	sts, evidence := make([]*segTerm, len(ms.terms)), make([][]Posting, 0, len(drive)*len(phrases))
	var found []Posting
	for _, c := range drive {
		start, mark, matched := len(evidence), len(found), true
		for i, off := 0, 0; i < len(phrases) && matched; off, i = off+len(phrases[i]), i+1 {
			var ps []Posting
			ps, found = c.seg.match(ms.terms[off:off+len(phrases[i])], level, sts, found)
			evidence, matched = append(evidence, ps), len(ps) > 0
		}
		if !matched {
			evidence, found = evidence[:start], found[:mark]
			continue
		}
		if ms.Specs == nil {
			ms.Specs = make([]SpecMatch, 0, len(drive))
		}
		n := len(evidence)
		ms.Specs = append(ms.Specs, SpecMatch{Spec: c.seg.spec, Policy: c.seg.pol, Phrases: evidence[start:n:n], Score: ms.score(c.seg)})
	}
	return ms
}

// match returns the postings of seg's modules visible at level that carry
// every term of one phrase (its snapshot entries; sts is scratch): a list
// prefix for one term, else postings appended to buf, returned too. A
// module has one ordinal in all of seg's lists: they intersect on those.
func (seg *segment) match(phrase []termEntry, level privacy.Level, sts []*segTerm, buf []Posting) ([]Posting, []Posting) {
	for i, e := range phrase {
		if sts[i] = seg.term(e.id); sts[i] == nil {
			return nil, buf
		}
	}
	first := sts[0]
	n := 0
	for n < len(first.postings) && first.postings[n].MinLevel <= level {
		n++
	}
	if len(phrase) == 1 {
		return first.postings[:n:n], buf
	}
	start := len(buf)
	for i, o := range first.ords[:n] {
		all := true
		for _, st := range sts[1:len(phrase)] {
			if _, ok := slices.BinarySearch(st.ords, o); !ok {
				all = false
				break
			}
		}
		if all {
			buf = append(buf, first.postings[i])
		}
	}
	return buf[start:len(buf):len(buf)], buf
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
