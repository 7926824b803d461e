package search

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"provpriv/internal/privacy"
	"provpriv/internal/workflow"
)

// referenceSearch is SearchWithAccess as it was decided before the hit
// pass worked on ordinals: the prefix a map of ids validated against the
// hierarchy, chains compared by their "/"-joined keys and matches sorted
// by their strings. TestOrdinalViewMatchesReference holds minimalView to
// it.
func referenceSearch(spec *workflow.Spec, query [][]string, accessView workflow.Prefix, pol *privacy.Policy, level privacy.Level) (workflow.Prefix, []Match, bool, error) {
	h, err := workflow.NewHierarchy(spec)
	if err != nil {
		return nil, nil, false, err
	}
	states, err := scanMatches(spec, h, query, pol, level)
	if err != nil {
		return nil, nil, false, err
	}
	type rawMatch struct {
		module   *workflow.Module
		workflow string
		chain    []string
		key      string
	}
	raw := make([][]rawMatch, len(states))
	for i, ps := range states {
		for _, at := range ps.matches {
			chain := h.Chain(at.Workflow.ID)
			raw[i] = append(raw[i], rawMatch{at.Module, at.Workflow.ID, chain, strings.Join(chain, "/")})
		}
		superseded := func(rm rawMatch) bool {
			if rm.module.Kind != workflow.Composite {
				return false
			}
			d := len(rm.chain)
			for _, other := range raw[i] {
				if d < len(other.chain) && other.chain[d] == rm.module.Sub {
					return true
				}
			}
			return false
		}
		var kept []rawMatch
		for _, rm := range raw[i] {
			if !superseded(rm) {
				kept = append(kept, rm)
			}
		}
		if len(kept) > 0 {
			raw[i] = kept
		}
	}
	prefix := workflow.NewPrefix(h.Root)
	zoomed := false
	for _, ms := range raw {
		best := ms[0]
		for _, rm := range ms[1:] {
			if len(rm.chain) < len(best.chain) || (len(rm.chain) == len(best.chain) && rm.key < best.key) {
				best = rm
			}
		}
		for _, wid := range best.chain {
			if !accessView.Contains(wid) {
				zoomed = true
				break
			}
			prefix[wid] = true
		}
	}
	if err := prefix.Validate(h); err != nil {
		return nil, nil, false, err
	}
	var matches []Match
	for i, ms := range raw {
		for _, rm := range ms {
			m := Match{Phrase: states[i].name, ModuleID: rm.module.ID, Workflow: rm.workflow}
			if !prefix[rm.workflow] || rm.module.Kind == workflow.Composite && prefix[rm.module.Sub] {
				for _, w := range rm.chain {
					if !prefix[w] {
						m.ZoomedTo = h.ViaModule(w)
						break
					}
				}
				if m.ZoomedTo == "" {
					continue
				}
			}
			matches = append(matches, m)
		}
	}
	if len(matches) == 0 {
		return nil, nil, false, fmt.Errorf("search: all matches suppressed by privacy constraints")
	}
	slices.SortFunc(matches, func(a, b Match) int {
		return cmp.Or(strings.Compare(a.Phrase, b.Phrase), strings.Compare(a.ModuleID, b.ModuleID), strings.Compare(a.ZoomedTo, b.ZoomedTo))
	})
	return prefix, slices.Compact(matches), zoomed, nil
}
