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
// module follows from the prefix alone (see minimalView). Result.View
// draws the graph for a caller that wants the picture.
package search

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

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
// it. The prefix is the answer; View draws it.
type Result struct {
	Prefix    workflow.Prefix
	Matches   []Match
	ZoomedOut bool // the ideal view was clipped by the user's access view

	spec *workflow.Spec
	hier *workflow.Hierarchy
}

// View expands the searched spec to the result's prefix: the rendering
// of the answer as a graph, built on each call.
func (r *Result) View() (*workflow.View, error) {
	return workflow.ExpandIn(r.spec, r.hier, r.Prefix)
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

// rawMatch is a phrase match before supersession/minimality: the module,
// its workflow, and that workflow's root chain and chain key, read with
// the module from one workflow.Hierarchy.Place (chain is the hierarchy's:
// read-only).
type rawMatch struct {
	module   *workflow.Module
	workflow string
	chain    []string
	key      string
}

func placed(at workflow.Placement) rawMatch {
	return rawMatch{module: at.Module, workflow: at.Workflow.ID, chain: at.Chain, key: at.ChainKey}
}

// phraseState is one query phrase — by the name it is reported under,
// its terms space-joined — with its raw matches. The two sources of raw
// matches — scanMatches and handedMatches — fill it; minimalView consumes
// it.
type phraseState struct {
	name    string
	matches []rawMatch
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

// ModuleRef is what a keyword index knows about a match without holding
// the spec: the module's id and the workflow containing it.
type ModuleRef interface {
	ModuleRef() (moduleID, workflowID string)
}

// Search evaluates a keyword query (see ParseQuery) against a spec with
// no privacy constraints and returns the minimal view containing all
// matches. It returns an error when some phrase matches nothing.
func Search(spec *workflow.Spec, query [][]string) (*Result, error) {
	return searchInternal(spec, query, nil, nil, 0)
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
// validated on registration); its "all matches suppressed" guard is
// unreachable when every phrase has a visible match, because a match is
// dropped from the report only when its whole workflow chain is in the
// prefix yet the view does not show the module — a composite whose
// expansion another match pulled in, and that match is reported.
// TestMatchesAgreesWithSearch pins the equivalence property-style.
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
	return searchInternal(spec, query, accessView, pol, level)
}

// SearchMatched is SearchWithAccess for a caller that already knows which
// modules carry each phrase — matched[i] lists them for the phrase named
// names[i] (see PhraseNames), as a keyword index over this very (spec,
// policy) pair reports them — and that holds the spec's prebuilt
// hierarchy h. Neither the spec's modules are scanned nor the hierarchy
// rebuilt, and matched is only read; the answer is the one
// SearchWithAccess gives whenever matched is what its scan would find.
// Enforcement does not rest on the caller: every handed module is
// resolved in h and re-checked against pol at level, and one that is
// absent, in another workflow or hidden is discarded, so a stale list can
// only shrink the answer (or fail the search), never widen it.
func SearchMatched[R ModuleRef](spec *workflow.Spec, h *workflow.Hierarchy, names []string, matched [][]R, accessView workflow.Prefix, pol *privacy.Policy, level privacy.Level) (*Result, error) {
	if accessView == nil {
		return nil, fmt.Errorf("search: nil access view")
	}
	if len(matched) != len(names) {
		return nil, fmt.Errorf("search: %d match lists for %d phrases", len(matched), len(names))
	}
	states, err := handedMatches(h, names, matched, pol, level)
	if err != nil {
		return nil, err
	}
	return minimalView(spec, h, states, accessView)
}

func searchInternal(spec *workflow.Spec, query [][]string, accessView workflow.Prefix, pol *privacy.Policy, level privacy.Level) (*Result, error) {
	h, err := workflow.NewHierarchy(spec)
	if err != nil {
		return nil, err
	}
	states, err := scanMatches(spec, h, query, pol, level)
	if err != nil {
		return nil, err
	}
	return minimalView(spec, h, states, accessView)
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
					ps.matches = append(ps.matches, placed(h.Place(m.ID)))
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

// handedMatches turns the per-phrase module refs a caller hands in into
// raw matches, keeping only refs that resolve in the spec h was built from
// — the module exists, in the named workflow — and pass the module-privacy
// check. Each ref is one lookup in h.
func handedMatches[R ModuleRef](h *workflow.Hierarchy, names []string, matched [][]R, pol *privacy.Policy, level privacy.Level) ([]phraseState, error) {
	n := 0
	for _, refs := range matched {
		n += len(refs)
	}
	states := make([]phraseState, 0, len(names))
	all := make([]rawMatch, 0, n) // every phrase's matches, one array
	for i, name := range names {
		start := len(all)
		for _, ref := range matched[i] {
			mid, wid := ref.ModuleRef()
			at := h.Place(mid)
			if at.Module == nil || at.Workflow.ID != wid || (pol != nil && !pol.CanSeeModule(level, mid)) {
				continue
			}
			all = append(all, placed(at))
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
// result prefix (each clipped to accessView when non-nil) and the match
// report. states holds at least one match per phrase.
//
// Nothing is expanded: under a parent-closed prefix P, the view shows
// module m of workflow w exactly when P holds w and m is not a composite
// whose subworkflow P holds too (that one is replaced by its expansion) —
// TestShownAgreesWithExpansion holds the rule to the expansion itself.
func minimalView(spec *workflow.Spec, h *workflow.Hierarchy, states []phraseState, accessView workflow.Prefix) (*Result, error) {
	if len(states) == 0 {
		return nil, fmt.Errorf("search: empty query")
	}

	// Supersession: drop a match on a composite module when the phrase
	// also matches inside its expansion subtree (the finer match is the
	// answer; the composite merely summarizes it).
	n := 0
	for i := range states {
		ms := states[i].matches
		for _, rm := range ms {
			if rm.chain == nil {
				return nil, fmt.Errorf("search: workflow %s of module %s is not in the hierarchy", rm.workflow, rm.module.ID)
			}
		}
		states[i].matches = dropSuperseded(ms)
		n += len(states[i].matches)
	}

	// Minimal prefix: per phrase, the cheapest requirement (fewest
	// workflows added, ties broken lexicographically); union across
	// phrases, clipped to the access view with zoom-out.
	prefix := workflow.NewPrefix(h.Root)
	zoomed := false
	for _, ps := range states {
		req, clipped := cheapestRequirement(ps.matches, accessView)
		zoomed = zoomed || clipped
		for _, wid := range req {
			prefix[wid] = true
		}
	}
	if err := prefix.Validate(h); err != nil {
		return nil, err
	}

	// Report every match visible in the final view; invisible finer
	// matches zoom out to their visible ancestor composite.
	res := &Result{Prefix: prefix, Matches: make([]Match, 0, n), ZoomedOut: zoomed, spec: spec, hier: h}
	for _, ps := range states {
		for _, rm := range ps.matches {
			match := Match{Phrase: ps.name, ModuleID: rm.module.ID, Workflow: rm.workflow}
			if !shown(prefix, rm) {
				anc := visibleAncestor(h, rm.chain, prefix)
				if anc == "" {
					continue
				}
				match.ZoomedTo = anc
			}
			res.Matches = append(res.Matches, match)
		}
	}
	if len(res.Matches) == 0 {
		return nil, fmt.Errorf("search: all matches suppressed by privacy constraints")
	}
	// One report per (phrase, module, zoomed-to): two phrases may share a
	// name and a handed list may repeat a module. The fields are compared
	// one by one, never joined into a string — module ids are wire-writable
	// and a separator could alias two distinct matches (provlint cachekey).
	slices.SortFunc(res.Matches, func(a, b Match) int {
		return cmp.Or(strings.Compare(a.Phrase, b.Phrase), strings.Compare(a.ModuleID, b.ModuleID), strings.Compare(a.ZoomedTo, b.ZoomedTo))
	})
	res.Matches = slices.CompactFunc(res.Matches, func(a, b Match) bool {
		return a.Phrase == b.Phrase && a.ModuleID == b.ModuleID && a.ZoomedTo == b.ZoomedTo
	})
	return res, nil
}

// shown reports whether the view of prefix p shows the matched module
// itself: its workflow is expanded and, if it is composite, its own
// subworkflow is not.
func shown(p workflow.Prefix, rm rawMatch) bool {
	return p[rm.workflow] && !(rm.module.Kind == workflow.Composite && p[rm.module.Sub])
}

// dropSuperseded removes matches on composite modules whose subtree
// contains another match for the same phrase.
func dropSuperseded(matches []rawMatch) []rawMatch {
	// The subworkflow of a composite sits one below the composite's own
	// workflow, so it has a match in its subtree exactly when some match's
	// root chain passes through it at that depth.
	superseded := func(rm rawMatch) bool {
		if rm.module.Kind != workflow.Composite {
			return false
		}
		d := len(rm.chain)
		for _, other := range matches {
			if d < len(other.chain) && other.chain[d] == rm.module.Sub {
				return true
			}
		}
		return false
	}
	if !slices.ContainsFunc(matches, superseded) {
		return matches
	}
	out := make([]rawMatch, 0, len(matches)-1)
	for _, rm := range matches {
		if !superseded(rm) {
			out = append(out, rm)
		}
	}
	if len(out) == 0 {
		return matches // defensive: never drop everything
	}
	return out
}

// cheapestRequirement returns the smallest prefix extension making some
// match of the phrase visible, as a root chain of the hierarchy
// (read-only): the shortest among the matches' chains, ties broken by
// chain key. When an access view is supplied and the cheapest requirement
// exceeds it, the requirement is clipped (zoom-out) and clipped=true is
// returned.
func cheapestRequirement(matches []rawMatch, accessView workflow.Prefix) (req []string, clipped bool) {
	best := matches[0]
	for _, rm := range matches[1:] {
		if len(rm.chain) < len(best.chain) ||
			(len(rm.chain) == len(best.chain) && rm.key < best.key) {
			best = rm
		}
	}
	req = best.chain
	if accessView != nil {
		for i, wid := range req {
			if !accessView.Contains(wid) {
				// prefix-closed: once outside, everything deeper is too
				return req[:i], true
			}
		}
	}
	return req, false
}

// visibleAncestor returns the composite module that represents the
// workflow at the end of the root chain in the view of the given prefix:
// the via-module of the shallowest workflow on the chain that is not in
// the prefix ("" if all are, so the workflow is visible).
func visibleAncestor(h *workflow.Hierarchy, chain []string, prefix workflow.Prefix) string {
	for _, w := range chain {
		if !prefix.Contains(w) {
			return h.ViaModule(w)
		}
	}
	return ""
}
