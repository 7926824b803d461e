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
package search

import (
	"fmt"
	"sort"
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

// Match records that a phrase matched a module.
type Match struct {
	Phrase   string // the phrase, space-joined
	ModuleID string
	Workflow string // workflow containing the module
	ZoomedTo string // if privacy re-mapped the match, the visible ancestor
}

// Result is a keyword-search answer: the minimal view and the matches
// visible in it.
type Result struct {
	View      *workflow.View
	Prefix    workflow.Prefix
	Matches   []Match
	ZoomedOut bool // the ideal view was clipped by the user's access view
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

// rawMatch is a phrase match before supersession/minimality.
type rawMatch struct {
	module   *workflow.Module
	workflow string
}

// phraseState is one query phrase with its raw matches. The two sources
// of raw matches — scanMatches and handedMatches — fill it; minimalView
// consumes it.
type phraseState struct {
	phrase  []string
	matches []rawMatch
}

// ModuleRef names a module by id and containing workflow: what a keyword
// index knows about a match without holding the spec.
type ModuleRef struct {
	ModuleID string
	Workflow string
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
// invalid specs (hierarchy/expand errors, impossible for specs the
// repository validated on registration); its "all matches suppressed"
// guard is unreachable when every phrase has a visible match, because a
// match is dropped from the report only when its whole workflow chain
// is in the prefix yet the module is absent from the view — a
// contradiction for expanded prefixes. TestMatchesAgreesWithSearch
// pins the equivalence property-style.
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
// modules carry each phrase — matched[i] lists them for query[i], as a
// keyword index over this very (spec, policy) pair reports them — and
// that holds the spec's prebuilt hierarchy h. Neither the spec's modules
// are scanned nor the hierarchy rebuilt; the answer is the one
// SearchWithAccess gives whenever matched is what its scan would find.
// Enforcement does not rest on the caller: every handed module is
// resolved in spec and re-checked against pol at level, and one that is
// absent or hidden is discarded, so a stale list can only shrink the
// answer (or fail the search), never widen it.
func SearchMatched(spec *workflow.Spec, h *workflow.Hierarchy, query [][]string, matched [][]ModuleRef, accessView workflow.Prefix, pol *privacy.Policy, level privacy.Level) (*Result, error) {
	if accessView == nil {
		return nil, fmt.Errorf("search: nil access view")
	}
	if len(matched) != len(query) {
		return nil, fmt.Errorf("search: %d match lists for %d phrases", len(matched), len(query))
	}
	states, err := handedMatches(spec, query, matched, pol, level)
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
	states, err := scanMatches(spec, query, pol, level)
	if err != nil {
		return nil, err
	}
	return minimalView(spec, h, states, accessView)
}

func errNoMatch(phrase []string) error {
	return fmt.Errorf("search: no match for phrase %q", strings.Join(phrase, " "))
}

// scanMatches collects the raw matches of every phrase by walking all
// modules of the spec.
func scanMatches(spec *workflow.Spec, query [][]string, pol *privacy.Policy, level privacy.Level) ([]phraseState, error) {
	states := make([]phraseState, 0, len(query))
	for _, phrase := range query {
		ps := phraseState{phrase: phrase}
		for _, wid := range spec.WorkflowIDs() {
			for _, m := range spec.Workflows[wid].Modules {
				if pol != nil && !pol.CanSeeModule(level, m.ID) {
					continue // module privacy: identity not searchable
				}
				if phraseMatches(m, phrase) {
					ps.matches = append(ps.matches, rawMatch{module: m, workflow: wid})
				}
			}
		}
		if len(ps.matches) == 0 {
			return nil, errNoMatch(phrase)
		}
		states = append(states, ps)
	}
	return states, nil
}

// handedMatches turns the per-phrase module refs a caller hands in into
// raw matches, keeping only refs that resolve in spec and pass the
// module-privacy check.
func handedMatches(spec *workflow.Spec, query [][]string, matched [][]ModuleRef, pol *privacy.Policy, level privacy.Level) ([]phraseState, error) {
	states := make([]phraseState, 0, len(query))
	for i, phrase := range query {
		ps := phraseState{phrase: phrase, matches: make([]rawMatch, 0, len(matched[i]))}
		for _, ref := range matched[i] {
			w := spec.Workflows[ref.Workflow]
			if w == nil {
				continue
			}
			m := w.Module(ref.ModuleID)
			if m == nil || (pol != nil && !pol.CanSeeModule(level, m.ID)) {
				continue
			}
			ps.matches = append(ps.matches, rawMatch{module: m, workflow: ref.Workflow})
		}
		if len(ps.matches) == 0 {
			return nil, errNoMatch(phrase)
		}
		states = append(states, ps)
	}
	return states, nil
}

// minimalView is the one place raw matches become an answer:
// supersession, cheapest requirement per phrase, expansion of the
// resulting prefix (clipped to accessView when non-nil) and the match
// report. states holds at least one match per phrase.
func minimalView(spec *workflow.Spec, h *workflow.Hierarchy, states []phraseState, accessView workflow.Prefix) (*Result, error) {
	if len(states) == 0 {
		return nil, fmt.Errorf("search: empty query")
	}

	// Supersession: drop a match on a composite module when the phrase
	// also matches inside its expansion subtree (the finer match is the
	// answer; the composite merely summarizes it).
	for i := range states {
		states[i].matches = dropSuperseded(h, states[i].matches)
	}

	// Minimal prefix: per phrase, the cheapest requirement (fewest
	// workflows added, ties broken lexicographically); union across
	// phrases, clipped to the access view with zoom-out.
	prefix := workflow.NewPrefix(h.Root)
	zoomed := false
	for _, ps := range states {
		req, clipped := cheapestRequirement(h, ps.matches, accessView)
		zoomed = zoomed || clipped
		for wid := range req {
			prefix[wid] = true
		}
	}
	view, err := workflow.ExpandIn(spec, h, prefix)
	if err != nil {
		return nil, err
	}

	// Report every match visible in the final view; invisible finer
	// matches zoom out to their visible ancestor composite.
	res := &Result{View: view, Prefix: prefix, ZoomedOut: zoomed}
	// Composite dedup key as a struct, not a "|"-joined string: module
	// IDs are wire-writable, and an ID containing the separator could
	// alias two distinct matches into one (provlint cachekey).
	type matchKey struct{ phrase, module, zoomedTo string }
	seen := make(map[matchKey]bool)
	for _, ps := range states {
		name := strings.Join(ps.phrase, " ")
		for _, rm := range ps.matches {
			match := Match{Phrase: name, ModuleID: rm.module.ID, Workflow: rm.workflow}
			if view.Module(rm.module.ID) == nil {
				anc := visibleAncestor(h, rm.workflow, prefix)
				if anc == "" {
					continue
				}
				match.ZoomedTo = anc
			}
			key := matchKey{phrase: name, module: match.ModuleID, zoomedTo: match.ZoomedTo}
			if !seen[key] {
				seen[key] = true
				res.Matches = append(res.Matches, match)
			}
		}
	}
	sort.Slice(res.Matches, func(i, j int) bool {
		if res.Matches[i].Phrase != res.Matches[j].Phrase {
			return res.Matches[i].Phrase < res.Matches[j].Phrase
		}
		return res.Matches[i].ModuleID < res.Matches[j].ModuleID
	})
	if len(res.Matches) == 0 {
		return nil, fmt.Errorf("search: all matches suppressed by privacy constraints")
	}
	return res, nil
}

// dropSuperseded removes matches on composite modules whose subtree
// contains another match for the same phrase.
func dropSuperseded(h *workflow.Hierarchy, matches []rawMatch) []rawMatch {
	// Workflows containing a match.
	matchWf := make(map[string]bool, len(matches))
	for _, rm := range matches {
		matchWf[rm.workflow] = true
	}
	inSubtree := func(root, wid string) bool {
		for cur := wid; cur != ""; cur = h.Parent(cur) {
			if cur == root {
				return true
			}
			if cur == h.Root {
				break
			}
		}
		return false
	}
	var out []rawMatch
	for _, rm := range matches {
		if rm.module.Kind == workflow.Composite {
			superseded := false
			for w := range matchWf {
				if w != rm.workflow && inSubtree(rm.module.Sub, w) {
					superseded = true
					break
				}
				if w == rm.module.Sub {
					superseded = true
					break
				}
			}
			if superseded {
				continue
			}
		}
		out = append(out, rm)
	}
	if len(out) == 0 {
		return matches // defensive: never drop everything
	}
	return out
}

// cheapestRequirement returns the smallest prefix extension making some
// match of the phrase visible. When an access view is supplied and the
// cheapest requirement exceeds it, the requirement is clipped (zoom-out)
// and clipped=true is returned.
func cheapestRequirement(h *workflow.Hierarchy, matches []rawMatch, accessView workflow.Prefix) (req map[string]bool, clipped bool) {
	type cand struct {
		chain []string // workflows root..containing
		key   string
	}
	var best *cand
	for _, rm := range matches {
		var chain []string
		for cur := rm.workflow; cur != ""; cur = h.Parent(cur) {
			chain = append([]string{cur}, chain...)
			if cur == h.Root {
				break
			}
		}
		c := &cand{chain: chain, key: strings.Join(chain, "/")}
		if best == nil || len(c.chain) < len(best.chain) ||
			(len(c.chain) == len(best.chain) && c.key < best.key) {
			best = c
		}
	}
	req = make(map[string]bool, len(best.chain))
	for _, wid := range best.chain {
		if accessView != nil && !accessView.Contains(wid) {
			clipped = true
			break // prefix-closed: once outside, everything deeper is too
		}
		req[wid] = true
	}
	return req, clipped
}

// visibleAncestor returns the composite module that represents workflow
// wid in the view of the given prefix: the via-module of the shallowest
// ancestor workflow not in the prefix ("" if wid is visible).
func visibleAncestor(h *workflow.Hierarchy, wid string, prefix workflow.Prefix) string {
	// Build chain root..wid.
	var chain []string
	for cur := wid; cur != ""; cur = h.Parent(cur) {
		chain = append([]string{cur}, chain...)
		if cur == h.Root {
			break
		}
	}
	for _, w := range chain {
		if !prefix.Contains(w) {
			return h.ViaModule(w)
		}
	}
	return ""
}
