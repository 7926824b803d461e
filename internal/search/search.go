// Package search implements keyword queries over hierarchical workflow
// specifications (Section 4 of the CIDR 2011 paper; semantics follow
// Liu, Shao and Chen, "Searching workflows with hierarchical views",
// PVLDB 2010, cited as [7]): the answer to a keyword query is a MINIMAL
// VIEW of the workflow — a prefix of the expansion hierarchy — that
// contains a match for every query phrase, drilling into composite
// modules exactly when a finer match exists inside them.
//
// On the paper's Fig. 1 workflow, the query "database, disorder risks"
// yields the view of prefix {W1, W2, W4} — Figure 5 — because
// "database" matches most specifically inside W4 (Generate Database
// Queries) while "disorder risks" matches the collapsed composite M2
// and nothing finer inside it.
//
// The privacy-aware variant clips the ideal view to the user's access
// view, re-mapping finer matches to their deepest visible ancestor
// composite (the "zoom-out" of Section 4), and refuses to match modules
// whose identity is protected by module privacy.
//
// The prefix is the answer; the expanded graph is one rendering of it. A
// search therefore expands nothing: the prefix is the union of root
// chains the hierarchy already holds, and whether the view shows a matched
// module follows from the prefix alone (see minimalView). It is decided on
// the hierarchy's ordinals — the prefix and the access view are sets of
// workflow ordinals, matches are ordered by module ordinals — so no id is
// hashed once a module is placed. Result.Prefix builds the map of ids,
// Result.View draws the graph, for a caller that wants either, and
// Result.AppendJSON writes the served hit from the ordinals directly.
package search

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"provpriv/internal/jsonw"
	"provpriv/internal/privacy"
	"provpriv/internal/workflow"
)

// Tokenize lowercases and splits a query or name into normalized terms.
// A trailing plural "s" is stripped from terms of length ≥ 4 so that
// "Risks" matches "risk".
func Tokenize(s string) []string {
	fields := strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return r == ' ' || r == '\t' || r == '-' || r == '_' || r == '/' || r == '.'
	})
	out := make([]string, 0, len(fields))
	for _, f := range fields {
		// Fields made only of untrimmed whitespace (\r, \n, …) normalize
		// to nothing; an empty term can never match and must not count
		// as a phrase.
		if t := Normalize(f); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// Normalize applies the term normalization used by both indexing and
// querying.
func Normalize(term string) string {
	t := strings.ToLower(strings.TrimSpace(term))
	if len(t) >= 4 && strings.HasSuffix(t, "s") && !strings.HasSuffix(t, "ss") {
		t = t[:len(t)-1]
	}
	return t
}

// ParseQuery splits a comma-separated keyword query into phrases, each
// a set of terms that must all match the same module ("database,
// disorder risks" → ["database"], ["disorder","risks"]).
func ParseQuery(q string) [][]string {
	var out [][]string
	for _, part := range strings.Split(q, ",") {
		toks := Tokenize(part)
		if len(toks) > 0 {
			out = append(out, toks)
		}
	}
	return out
}

// Match records that a phrase matched a module. The tags are its wire
// form: the server encodes a result's matches as they stand.
type Match struct {
	Phrase   string `json:"phrase"` // the phrase, space-joined
	ModuleID string `json:"module"`
	Workflow string `json:"workflow"`            // workflow containing the module
	ZoomedTo string `json:"zoomed_to,omitempty"` // if privacy re-mapped the match, the visible ancestor
}

// Result is a keyword-search answer: the minimal view, as the prefix of
// the expansion hierarchy that determines it, and the matches visible in
// it — none when every match lies beneath withdrawn composites the level
// may not see. The prefix is the answer; View draws it.
type Result struct {
	Matches   []Match
	ZoomedOut bool // the ideal view was clipped by the user's access view

	prefix workflow.Bits
	word   [1]uint64 // prefix's storage when the hierarchy has at most 64 workflows
	spec   *workflow.Spec
	hier   *workflow.Hierarchy
}

// Prefix returns the result's prefix, built on each call.
func (r *Result) Prefix() workflow.Prefix { return r.hier.Prefix(r.prefix) }

// View expands the searched spec to the result's prefix: the rendering
// of the answer as a graph, built on each call.
func (r *Result) View() (*workflow.View, error) {
	return workflow.ExpandIn(r.spec, r.hier, r.Prefix())
}

// AppendJSON appends the result as the /search hit for the spec specID,
// scored score: byte for byte what encoding/json writes for
//
//	struct {
//		Spec      string  `json:"spec"`
//		Score     float64 `json:"score"`
//		Prefix    []string `json:"prefix"` // Prefix().IDs()
//		ZoomedOut bool    `json:"zoomed_out,omitempty"`
//		Matches   []Match `json:"matches"`
//	}
//
// The prefix is written from its set in ordinal order, which is id order.
func (r *Result) AppendJSON(b []byte, specID string, score float64) []byte {
	b = append(b, `{"spec":`...)
	b = jsonw.AppendString(b, specID)
	b = append(b, `,"score":`...)
	b = jsonw.AppendFloat(b, score)
	b = append(b, `,"prefix":[`...)
	sep := false
	for o := range r.prefix.All() {
		if sep {
			b = append(b, ',')
		}
		b, sep = jsonw.AppendString(b, r.hier.ID(o)), true
	}
	b = append(b, ']')
	if r.ZoomedOut {
		b = append(b, `,"zoomed_out":true`...)
	}
	b = append(b, `,"matches":`...)
	if r.Matches == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, m := range r.Matches {
			if i > 0 {
				b = append(b, ',')
			}
			b = m.appendJSON(b)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendJSON appends the match as encoding/json writes it by its tags.
func (m *Match) appendJSON(b []byte) []byte {
	b = append(b, `{"phrase":`...)
	b = jsonw.AppendString(b, m.Phrase)
	b = append(b, `,"module":`...)
	b = jsonw.AppendString(b, m.ModuleID)
	b = append(b, `,"workflow":`...)
	b = jsonw.AppendString(b, m.Workflow)
	if m.ZoomedTo != "" {
		b = append(b, `,"zoomed_to":`...)
		b = jsonw.AppendString(b, m.ZoomedTo)
	}
	return append(b, '}')
}

// ModuleTerms returns the normalized searchable terms of a module: the
// one definition of what a phrase term is tested against, for the keyword
// scan here and for the structural-query evaluator's per-spec tables.
func ModuleTerms(m *workflow.Module) map[string]bool {
	set := make(map[string]bool)
	for _, k := range m.AllKeywords() {
		set[Normalize(k)] = true
	}
	return set
}

func phraseMatches(m *workflow.Module, phrase []string) bool {
	terms := ModuleTerms(m)
	for _, p := range phrase {
		if !terms[p] {
			return false
		}
	}
	return true
}

// phraseState is one query phrase — by the name it is reported under,
// its terms space-joined — with its raw matches: where the hierarchy places
// each module carrying it, before supersession and minimality. The two
// sources of raw matches — scanMatches and handedMatches — fill it;
// minimalView consumes it.
type phraseState struct {
	name    string
	matches []*workflow.Placement
}

// PhraseNames returns the name each phrase of a parsed query is reported
// under in Match.Phrase.
func PhraseNames(query [][]string) []string {
	names := make([]string, len(query))
	for i, phrase := range query {
		names[i] = strings.Join(phrase, " ")
	}
	return names
}

// Search evaluates a keyword query (see ParseQuery) against a spec with
// no privacy constraints and returns the minimal view containing all
// matches. It returns an error when some phrase matches nothing.
func Search(spec *workflow.Spec, query [][]string) (*Result, error) {
	h, err := workflow.NewHierarchy(spec)
	if err != nil {
		return nil, err
	}
	return searchInternal(spec, h, query, nil, nil, 0)
}

// Matches reports whether SearchWithAccess would succeed for the query —
// i.e. every phrase matches at least one module visible under module
// privacy — by scanning the spec's modules. It is the reference oracle
// for the search predicate: the served path does not call it (the
// inverted index answers the predicate, see index.Inverted.Match) and
// the differential tests hold the index to it.
//
// Equivalence with searchInternal: beyond the per-phrase visible-match
// requirement tested here, searchInternal can only fail on structurally
// invalid specs (hierarchy errors, impossible for specs the repository
// validated on registration). A match it drops from the report — one
// beneath a withdrawn composite that no composite the level may see stands
// for, or one whose whole workflow chain is in the prefix yet the view
// does not show it — still made the spec a hit, which then names fewer
// matches, possibly none. TestMatchesAgreesWithSearch pins the equivalence
// property-style.
func Matches(spec *workflow.Spec, query [][]string, pol *privacy.Policy, level privacy.Level) bool {
	if len(query) == 0 {
		return false
	}
	for _, phrase := range query {
		found := false
		for _, wid := range spec.WorkflowIDs() {
			for _, m := range spec.Workflows[wid].Modules {
				if pol != nil && !pol.CanSeeModule(level, m.ID) {
					continue
				}
				if phraseMatches(m, phrase) {
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// SearchWithAccess evaluates the query under an access view and a
// policy: the answer view never exceeds accessView, matches on modules
// hidden by module privacy are discarded, and matches inside workflows
// beyond the access view zoom out to their deepest visible ancestor.
func SearchWithAccess(spec *workflow.Spec, query [][]string, accessView workflow.Prefix, pol *privacy.Policy, level privacy.Level) (*Result, error) {
	if accessView == nil {
		return nil, fmt.Errorf("search: nil access view")
	}
	h, err := workflow.NewHierarchy(spec)
	if err != nil {
		return nil, err
	}
	return searchInternal(spec, h, query, h.Bits(accessView), pol, level)
}

// SearchMatched is SearchWithAccess for a caller that already knows which
// modules carry each phrase — matched[i] lists them, as module ordinals of
// h (Hierarchy.ModuleID), for the phrase named names[i] (see PhraseNames),
// as a keyword index over this very (spec, policy) pair reports them — and
// that holds the spec's prebuilt hierarchy h, the access view as a set of
// its workflow ordinals (h.Bits) and need, the level the policy requires to
// see each module ordinal (privacy.Policy.ModuleNeeds over h). Neither the
// spec's modules are scanned nor the hierarchy rebuilt, no id is hashed,
// and matched is only read; the answer is the one SearchWithAccess gives
// whenever matched is what its scan would find.
// Enforcement does not rest on the caller: every handed ordinal is
// bounds-checked and re-checked against need at level, and one outside h
// or hidden is discarded, so a stale list can only shrink the answer (or
// fail the search), never widen it.
func SearchMatched(spec *workflow.Spec, h *workflow.Hierarchy, names []string, matched [][]int32, need []privacy.Level, access workflow.Bits, level privacy.Level) (*Result, error) {
	if access == nil {
		return nil, fmt.Errorf("search: nil access view")
	}
	if len(matched) != len(names) {
		return nil, fmt.Errorf("search: %d match lists for %d phrases", len(matched), len(names))
	}
	if len(need) != h.Modules() {
		return nil, fmt.Errorf("search: %d module levels for %d modules", len(need), h.Modules())
	}
	var buf [4]phraseState // a query has a few phrases: no allocation for them
	states, err := handedMatches(buf[:0], h, names, matched, need, level)
	if err != nil {
		return nil, err
	}
	return minimalView(spec, h, states, access, need, level)
}

func searchInternal(spec *workflow.Spec, h *workflow.Hierarchy, query [][]string, access workflow.Bits, pol *privacy.Policy, level privacy.Level) (*Result, error) {
	states, err := scanMatches(spec, h, query, pol, level)
	if err != nil {
		return nil, err
	}
	var need []privacy.Level
	if pol != nil {
		need = pol.ModuleNeeds(h)
	}
	return minimalView(spec, h, states, access, need, level)
}

func errNoMatch(name string) error {
	return fmt.Errorf("search: no match for phrase %q", name)
}

// scanMatches collects the raw matches of every phrase by walking all
// modules of the spec, placing each in h (built from spec).
func scanMatches(spec *workflow.Spec, h *workflow.Hierarchy, query [][]string, pol *privacy.Policy, level privacy.Level) ([]phraseState, error) {
	states := make([]phraseState, 0, len(query))
	wids := spec.WorkflowIDs()
	for _, phrase := range query {
		ps := phraseState{name: strings.Join(phrase, " ")}
		for _, wid := range wids {
			for _, m := range spec.Workflows[wid].Modules {
				if pol != nil && !pol.CanSeeModule(level, m.ID) {
					continue // module privacy: identity not searchable
				}
				if phraseMatches(m, phrase) {
					ps.matches = append(ps.matches, h.Place(m.ID))
				}
			}
		}
		if len(ps.matches) == 0 {
			return nil, errNoMatch(ps.name)
		}
		states = append(states, ps)
	}
	return states, nil
}

// handedMatches turns the per-phrase module ordinals a caller hands in
// into raw matches, appended to states, keeping only ordinals of h's
// modules (need has one entry per module) that level may see: the
// module-privacy re-check is one read of need, the placement one index
// into h.
func handedMatches(states []phraseState, h *workflow.Hierarchy, names []string, matched [][]int32, need []privacy.Level, level privacy.Level) ([]phraseState, error) {
	n := 0
	for _, ords := range matched {
		n += len(ords)
	}
	all := make([]*workflow.Placement, 0, n) // every phrase's matches, one array
	for i, name := range names {
		start := len(all)
		for _, o := range matched[i] {
			if o < 0 || int(o) >= len(need) || need[o] > level {
				continue
			}
			all = append(all, h.Placed(o))
		}
		if len(all) == start {
			return nil, errNoMatch(name)
		}
		states = append(states, phraseState{name: name, matches: all[start:len(all):len(all)]})
	}
	return states, nil
}

// minimalView is the one place raw matches become an answer:
// supersession, cheapest requirement per phrase, their union as the
// result prefix (each clipped to access when non-nil) and the match
// report. states holds at least one match per phrase; need, when non-nil,
// is the level required to see each module ordinal, read for the
// composites a match beneath a withdrawn one is reported as.
//
// Nothing is expanded and no id is hashed: the prefix is a set of workflow
// ordinals, the root and a prefix of each phrase's cheapest root chain, so
// parent-closed by construction. Under a parent-closed prefix P, the view
// shows module m of workflow w exactly when P holds w and m is not a
// composite whose subworkflow P holds too (that one is replaced by its
// expansion) — TestShownAgreesWithExpansion holds the rule to the expansion
// itself.
func minimalView(spec *workflow.Spec, h *workflow.Hierarchy, states []phraseState, access workflow.Bits, need []privacy.Level, level privacy.Level) (*Result, error) {
	if len(states) == 0 {
		return nil, fmt.Errorf("search: empty query")
	}

	// Supersession: drop a match on a composite module when the phrase
	// also matches inside its expansion subtree (the finer match is the
	// answer; the composite merely summarizes it).
	n := 0
	for i := range states {
		ms := states[i].matches
		for _, at := range ms {
			if at.Chain == nil {
				return nil, fmt.Errorf("search: workflow %s of module %s is not in the hierarchy", at.Workflow.ID, at.Module.ID)
			}
		}
		states[i].matches = dropSuperseded(h, ms)
		n += len(states[i].matches)
	}

	// Minimal prefix: per phrase, the cheapest requirement (fewest
	// workflows added, ties broken lexicographically); union across
	// phrases, clipped to the access view with zoom-out.
	res := &Result{spec: spec, hier: h}
	res.prefix = newBits(h, &res.word)
	res.prefix.Set(states[0].matches[0].Chain[0]) // every chain starts at the root
	for _, ps := range states {
		for _, o := range cheapestRequirement(ps.matches) {
			if access != nil && !access.Has(o) {
				// prefix-closed: once outside, everything deeper is too
				res.ZoomedOut = true
				break
			}
			res.prefix.Set(o)
		}
	}

	// Report every match visible in the final view; invisible finer
	// matches zoom out to their visible ancestor composite. A match whose
	// workflow lies outside the access view names nothing inside the
	// withdrawn region: it is reported as the composite the level sees in
	// its place (withdrawnAs), zoomed out to itself, or not at all when
	// there is none — the hit stands, as the index decided it, naming what
	// it can. One report per (phrase, module, zoomed-to): two phrases may
	// share a name, a handed list may repeat a module, and two matches may
	// be reported as one composite. Reports are ordered and deduplicated by
	// phrase name, then module and zoomed-to ordinal, which order as their
	// ids do; the fields are compared one by one, never joined into a
	// string — module ids are wire-writable and a separator could alias two
	// distinct matches (provlint cachekey).
	type report struct {
		phrase, zoomed int32 // zoomed: -1 when the module is shown
		at             *workflow.Placement
	}
	var buf [16]report
	reports := buf[:0]
	if n > len(buf) {
		reports = make([]report, 0, n)
	}
	for i, ps := range states {
		for _, at := range ps.matches {
			r := report{phrase: int32(i), zoomed: -1, at: at}
			if access != nil && !access.Has(at.Chain[len(at.Chain)-1]) {
				if r.at = withdrawnAs(h, at.Chain, access, need, level); r.at == nil {
					continue
				}
				r.zoomed = r.at.Ord
			}
			if !shown(res.prefix, r.at) {
				if r.zoomed = visibleAncestor(h, r.at.Chain, res.prefix); r.zoomed < 0 {
					continue
				}
			}
			reports = append(reports, r)
		}
	}
	cmpReports := func(a, b report) int {
		if a.phrase != b.phrase {
			if c := strings.Compare(states[a.phrase].name, states[b.phrase].name); c != 0 {
				return c
			}
		}
		if a.at.Ord != b.at.Ord {
			return cmp.Compare(a.at.Ord, b.at.Ord)
		}
		return cmp.Compare(a.zoomed, b.zoomed)
	}
	slices.SortFunc(reports, cmpReports)
	reports = slices.CompactFunc(reports, func(a, b report) bool { return cmpReports(a, b) == 0 })
	res.Matches = make([]Match, len(reports))
	for i, r := range reports {
		res.Matches[i] = Match{Phrase: states[r.phrase].name, ModuleID: r.at.Module.ID, Workflow: r.at.Workflow.ID}
		if r.zoomed >= 0 {
			res.Matches[i].ZoomedTo = h.ModuleID(r.zoomed)
		}
	}
	return res, nil
}

// shown reports whether the view of prefix p shows the placed module
// itself: its workflow is expanded and, if it is composite, its own
// subworkflow is not.
func shown(p workflow.Bits, at *workflow.Placement) bool {
	return p.Has(at.Chain[len(at.Chain)-1]) && !p.Has(at.Sub)
}

// dropSuperseded removes, in place, matches on composite modules whose
// subtree contains another match for the same phrase.
func dropSuperseded(h *workflow.Hierarchy, matches []*workflow.Placement) []*workflow.Placement {
	if !slices.ContainsFunc(matches, func(at *workflow.Placement) bool { return at.Sub >= 0 }) {
		return matches
	}
	// A composite's subtree holds a match exactly when the subworkflow is
	// on that match's root chain: mark every chain's workflows once.
	var word [1]uint64
	onChain := newBits(h, &word)
	for _, at := range matches {
		for _, o := range at.Chain {
			onChain.Set(o)
		}
	}
	// The deepest match of a chain is never superseded, so something stays.
	return slices.DeleteFunc(matches, func(at *workflow.Placement) bool { return onChain.Has(at.Sub) })
}

// newBits returns an empty set for h's workflows, held in word when they
// fit.
func newBits(h *workflow.Hierarchy, word *[1]uint64) workflow.Bits {
	if h.Size() <= 64 {
		return word[:]
	}
	return h.NewBits()
}

// cheapestRequirement returns the smallest prefix extension making some
// match of the phrase visible, as a root chain of the hierarchy in
// ordinals (read-only): the shortest among the matches' chains, ties
// broken by chain rank, the order of the chains' "/"-joined ids.
func cheapestRequirement(matches []*workflow.Placement) []int32 {
	best := matches[0]
	for _, at := range matches[1:] {
		if len(at.Chain) < len(best.Chain) || (len(at.Chain) == len(best.Chain) && at.Rank < best.Rank) {
			best = at
		}
	}
	return best.Chain
}

// withdrawnAs returns where the composite that stands, at level, for a
// workflow outside access is placed: given the workflow's root chain, the
// via-module of its shallowest workflow outside access — which sits in a
// workflow access holds — or, when level may not see that module (need),
// the next composite up the chain it may see; nil when there is none.
func withdrawnAs(h *workflow.Hierarchy, chain []int32, access workflow.Bits, need []privacy.Level, level privacy.Level) *workflow.Placement {
	k := 0
	for access.Has(chain[k]) {
		k++
	}
	for ; k > 0; k-- {
		if c := h.Via(chain[k]); need == nil || need[c] <= level {
			return h.Placed(c)
		}
	}
	return nil
}

// visibleAncestor returns the ordinal of the composite module that
// represents the workflow at the end of the root chain in the view of the
// given prefix: the via-module of the shallowest workflow on the chain that
// is not in the prefix (-1 if all are, so the workflow is visible).
func visibleAncestor(h *workflow.Hierarchy, chain []int32, prefix workflow.Bits) int32 {
	for _, o := range chain {
		if !prefix.Has(o) {
			return h.Via(o)
		}
	}
	return -1
}
