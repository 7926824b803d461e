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
// the posting lists alone. Postings are sorted level-first, so "visible
// at level L" is a prefix of every list, and each spec's segment records
// the (spec, policy) pointers it was built from, so the repository can
// tell whether an answer still describes the state it holds. The TF·IDF
// score of a spec at a level is a function of the same prefixes — term
// frequency is the occurrence counts beside the segment's visible
// postings, document frequency the specs with a visible posting, N the
// number of segments — so there is no per-level ranking corpus to keep
// beside the index. search.Matches, the per-module scan, and rank.Corpus,
// the per-level document store, remain only as the oracles the tests hold
// Match to.
package index

import (
	"slices"
	"sort"
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

// segment holds one spec's postings, keyed by term and sorted in
// canonical order, next to the (spec, policy) pointers they were
// extracted from: a reader that holds the same two pointers knows the
// postings describe exactly the state it holds. Segments are immutable
// once built; mutating a spec replaces its segment wholesale.
type segment struct {
	spec     *workflow.Spec
	pol      *privacy.Policy
	postings map[string][]Posting
	// tf[term] counts the term's keyword occurrences by the level of the
	// module carrying them — all of them, where a posting stands for a
	// module however many of its keywords normalize to the term. It is
	// kept beside the postings, not inside Posting, because match relies
	// on a module's posting being the same value in every list.
	tf map[string][]levelCount
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

// buildSegment extracts one spec's postings. policy may be nil (all
// modules public).
func buildSegment(s *workflow.Spec, pol *privacy.Policy) *segment {
	seg := &segment{spec: s, pol: pol, postings: make(map[string][]Posting), tf: make(map[string][]levelCount)}
	for _, wid := range s.WorkflowIDs() {
		for _, m := range s.Workflows[wid].Modules {
			minLevel := privacy.Public
			if pol != nil {
				minLevel = pol.ModuleLevels[m.ID]
			}
			seen := make(map[string]bool)
			for _, kw := range m.AllKeywords() {
				term := search.Normalize(kw)
				seg.tf[term] = addAt(seg.tf[term], minLevel, 1)
				if seen[term] {
					continue // distinct raw keywords may normalize alike
				}
				seen[term] = true
				seg.postings[term] = append(seg.postings[term], Posting{
					SpecID: s.ID, ModuleID: m.ID, Workflow: wid, MinLevel: minLevel,
				})
			}
		}
	}
	for term := range seg.postings {
		ps := seg.postings[term]
		sort.Slice(ps, func(i, j int) bool { return postingLess(ps[i], ps[j]) })
	}
	return seg
}

// minLevel is the lowest level at which the spec shows term at all (the
// spec must carry it).
func (seg *segment) minLevel(term string) privacy.Level {
	return seg.postings[term][0].MinLevel
}

// termEntry is what a snapshot keeps per term: the merged posting list of
// every segment, and the document frequency those lists imply — df counts
// each spec once, at the lowest level that sees the term in it.
type termEntry struct {
	postings []Posting
	df       []levelCount
}

// invSnapshot is an immutable view of the whole index: the per-spec
// segments and their merge into one entry per term. Readers load it with
// one atomic pointer read, so the merged lists, the document frequencies
// and the segments they see always describe the same set of (spec,
// policy) pairs; writers build a replacement (copying the two directories
// and only the term entries they touch — untouched entries and segments
// are shared) and swap it in.
type invSnapshot struct {
	terms    map[string]termEntry
	segments map[string]*segment
	count    int // total postings across all terms
}

var emptyInvSnapshot = &invSnapshot{terms: map[string]termEntry{}}

// Inverted is a privacy-classified inverted keyword index over a set of
// specifications, organized as one segment per spec behind an atomically
// published merged snapshot.
//
// Concurrency: Match, Lookup, Terms, Postings and Segments read the
// current snapshot without acquiring any lock, so a fleet of concurrent
// readers never serializes and never observes a half-applied mutation.
// AddSpec and RemoveSpec serialize on an internal mutex, rebuild only
// the term lists the mutated spec touches (sharing the rest with the
// previous snapshot), and publish the result with one atomic swap: once
// a mutation returns, every subsequent read sees it.
type Inverted struct {
	mu    sync.Mutex // serializes writers; readers never take it
	snap  atomic.Pointer[invSnapshot]
	swaps atomic.Int64
}

// BuildInverted indexes every module keyword of every spec. policies
// (keyed by spec id, may be nil or sparse) supply module privacy levels;
// unlisted modules are public.
func BuildInverted(specs []*workflow.Spec, policies map[string]*privacy.Policy) *Inverted {
	ix := &Inverted{}
	segments := make(map[string]*segment, len(specs))
	terms := make(map[string]termEntry)
	count := 0
	for _, s := range specs {
		var pol *privacy.Policy
		if policies != nil {
			pol = policies[s.ID]
		}
		seg := buildSegment(s, pol)
		segments[s.ID] = seg
		for term, ps := range seg.postings {
			e := terms[term]
			terms[term] = termEntry{append(e.postings, ps...), addAt(e.df, seg.minLevel(term), 1)}
			count += len(ps)
		}
	}
	for _, e := range terms {
		sort.Slice(e.postings, func(i, j int) bool { return postingLess(e.postings[i], e.postings[j]) })
	}
	ix.snap.Store(&invSnapshot{terms: terms, segments: segments, count: count})
	return ix
}

// snapshot returns the current published snapshot (never nil).
func (ix *Inverted) snapshot() *invSnapshot {
	if s := ix.snap.Load(); s != nil {
		return s
	}
	return emptyInvSnapshot
}

// AddSpec indexes one more spec (replacing its postings if already
// indexed, so a policy change re-registers cleanly). Cost is
// O(index terms) for the snapshot map copy plus O(touched-term postings)
// for the term lists the spec appears in; postings of untouched terms
// are shared with the previous snapshot, not copied.
func (ix *Inverted) AddSpec(s *workflow.Spec, pol *privacy.Policy) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.publish(s.ID, buildSegment(s, pol))
}

// RemoveSpec drops every posting of the given spec id. Only the term
// lists the spec itself occupies are rewritten — O(spec's own terms),
// not a scan over every posting in the index.
func (ix *Inverted) RemoveSpec(specID string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.snapshot().segments[specID] == nil {
		return
	}
	ix.publish(specID, nil)
}

// publish installs (seg != nil) or removes (seg == nil) the segment of
// one spec and swaps in a snapshot reflecting it. Caller holds ix.mu.
func (ix *Inverted) publish(specID string, seg *segment) {
	old := ix.snapshot()
	prev := old.segments[specID]

	// Terms whose merged list changes: union of the old and new segment.
	touched := make(map[string]bool)
	if prev != nil {
		for term := range prev.postings {
			touched[term] = true
		}
	}
	if seg != nil {
		for term := range seg.postings {
			touched[term] = true
		}
	}

	next := make(map[string]termEntry, len(old.terms)+len(touched))
	count := old.count
	for term, e := range old.terms {
		next[term] = e // shared; touched terms are replaced below
	}
	for term := range touched {
		e := old.terms[term]
		e.df = slices.Clone(e.df) // the old snapshot keeps its own
		if prev != nil && prev.postings[term] != nil {
			e.df = addAt(e.df, prev.minLevel(term), -1)
		}
		var add []Posting
		if seg != nil && seg.postings[term] != nil {
			add = seg.postings[term]
			e.df = addAt(e.df, seg.minLevel(term), 1)
		}
		count -= len(e.postings)
		e.postings = mergeTerm(e.postings, specID, add)
		count += len(e.postings)
		if len(e.postings) == 0 {
			delete(next, term)
		} else {
			next[term] = e
		}
	}

	segments := make(map[string]*segment, len(old.segments)+1)
	for id, sg := range old.segments {
		segments[id] = sg
	}
	if seg == nil {
		delete(segments, specID)
	} else {
		segments[specID] = seg
	}
	ix.snap.Store(&invSnapshot{terms: next, segments: segments, count: count})
	ix.swaps.Add(1)
}

// mergeTerm rebuilds one term's posting list: postings of specID are
// dropped from old, and add (sorted, all belonging to specID) is merged
// in canonical order. The result is always a fresh slice.
func mergeTerm(old []Posting, specID string, add []Posting) []Posting {
	merged := make([]Posting, 0, len(old)+len(add))
	j := 0
	for _, p := range old {
		if p.SpecID == specID {
			continue
		}
		for j < len(add) && postingLess(add[j], p) {
			merged = append(merged, add[j])
			j++
		}
		merged = append(merged, p)
	}
	merged = append(merged, add[j:]...)
	return merged
}

// Lookup returns the postings for term visible at the given level. It
// reads the current snapshot with a single atomic load — no mutex — so
// concurrent writers never stall it. The scan stops at the first posting
// above the level (postings are sorted by MinLevel), so low-privilege
// lookups touch only their own prefix.
func (ix *Inverted) Lookup(term string, level privacy.Level) []Posting {
	ps := ix.snapshot().terms[search.Normalize(term)].postings
	var out []Posting
	for _, p := range ps {
		if p.MinLevel > level {
			break
		}
		out = append(out, p)
	}
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
	terms []string  // the query's terms, flattened in order
	idf   []float64 // idf[i] belongs to terms[i]
}

// score is the TF·IDF of one segment for the query; the summation order
// is rank.Corpus's, so the float is too.
func (ms *Matches) score(seg *segment) float64 {
	var s float64
	for i, t := range ms.terms {
		s += float64(visible(seg.tf[t], ms.level)) * ms.idf[i]
	}
	return s
}

// RankAll scores every spec in which the level sees some query term —
// matching or not — by descending score, ties by spec id: the ranking
// rank.Corpus.Rank returns, whose range rank.Bucketize quantizes over.
func (ms *Matches) RankAll() []rank.Ranked {
	var out []rank.Ranked
	seen := make(map[string]bool)
	for _, t := range ms.terms {
		for _, p := range ms.snap.terms[t].postings {
			if p.MinLevel > ms.level {
				break
			}
			if !seen[p.SpecID] {
				seen[p.SpecID] = true
				out = append(out, rank.Ranked{Doc: p.SpecID, Score: ms.score(ms.snap.segments[p.SpecID])})
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
// A matching spec has a visible posting for the first term of every
// phrase, so the candidates are the specs in the level-prefix of the
// shortest such merged list; each candidate is then decided, and scored,
// inside its own segment. Everything is read from one snapshot, so the
// result never mixes two states of the index.
func (ix *Inverted) Match(phrases [][]string, level privacy.Level) Matches {
	snap := ix.snapshot()
	ms := Matches{snap: snap, level: level}
	if len(phrases) == 0 {
		return ms
	}
	var drive []Posting
	for i, phrase := range phrases {
		if len(phrase) == 0 {
			return ms
		}
		if ps := snap.terms[phrase[0]].postings; i == 0 || len(ps) < len(drive) {
			drive = ps
		}
	}
	for _, phrase := range phrases {
		for _, t := range phrase {
			ms.terms = append(ms.terms, t)
			ms.idf = append(ms.idf, rank.IDF(len(snap.segments), visible(snap.terms[t].df, level)))
		}
	}
	tried := make(map[string]bool)
	scratch := make([][]Posting, len(phrases))
	for _, p := range drive {
		if p.MinLevel > level {
			break
		}
		if tried[p.SpecID] {
			continue
		}
		tried[p.SpecID] = true
		seg := snap.segments[p.SpecID]
		matched := true
		for i, phrase := range phrases {
			if scratch[i] = seg.match(phrase, level); len(scratch[i]) == 0 {
				matched = false
				break
			}
		}
		if matched {
			ms.Specs = append(ms.Specs, SpecMatch{
				Spec: seg.spec, Policy: seg.pol,
				Phrases: append([][]Posting(nil), scratch...),
				Score:   ms.score(seg),
			})
		}
	}
	return ms
}

// match returns the postings of the segment's modules that are visible
// at level and carry every term of the phrase. A module has one MinLevel,
// so its posting is the same value in every term list it appears in.
func (seg *segment) match(phrase []string, level privacy.Level) []Posting {
	first := seg.postings[phrase[0]]
	n := 0
	for n < len(first) && first[n].MinLevel <= level {
		n++
	}
	first = first[:n:n]
	if len(phrase) == 1 {
		return first
	}
	var out []Posting
	for _, p := range first {
		all := true
		for _, term := range phrase[1:] {
			ps := seg.postings[term]
			i := sort.Search(len(ps), func(i int) bool { return !postingLess(ps[i], p) })
			if i == len(ps) || ps[i] != p {
				all = false
				break
			}
		}
		if all {
			out = append(out, p)
		}
	}
	return out
}

// Postings returns the total number of postings (for size accounting).
func (ix *Inverted) Postings() int {
	return ix.snapshot().count
}

// TermCount returns the number of distinct indexed terms in O(1) —
// unlike Terms, it neither copies nor sorts (for stats/metrics paths).
func (ix *Inverted) TermCount() int {
	return len(ix.snapshot().terms)
}

// Segments returns the number of per-spec segments currently indexed.
// Like every other read it loads the snapshot and takes no lock, so a
// stats or metrics scrape never queues behind an index mutation.
func (ix *Inverted) Segments() int {
	return len(ix.snapshot().segments)
}

// Swaps returns how many snapshot publications (spec mutations) the
// index has performed — a churn counter for the metrics endpoint.
func (ix *Inverted) Swaps() int64 {
	return ix.swaps.Load()
}

// NaiveLookup is the no-index baseline used by benchmark B4: scan every
// module of every spec on each query, re-checking the policy each time.
//
//provlint:ignore unserved reference: index_test.go holds the index's lookup to this scan; bench_test.go times both
func NaiveLookup(specs []*workflow.Spec, policies map[string]*privacy.Policy, term string, level privacy.Level) []Posting {
	want := search.Normalize(term)
	var out []Posting
	for _, s := range specs {
		var pol *privacy.Policy
		if policies != nil {
			pol = policies[s.ID]
		}
		for _, wid := range s.WorkflowIDs() {
			for _, m := range s.Workflows[wid].Modules {
				if pol != nil && !pol.CanSeeModule(level, m.ID) {
					continue
				}
				for _, kw := range m.AllKeywords() {
					if search.Normalize(kw) == want {
						minLevel := privacy.Public
						if pol != nil {
							minLevel = pol.ModuleLevels[m.ID]
						}
						out = append(out, Posting{SpecID: s.ID, ModuleID: m.ID, Workflow: wid, MinLevel: minLevel})
						break
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return postingLess(out[i], out[j]) })
	return out
}
