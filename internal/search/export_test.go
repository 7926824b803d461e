package search

import (
	"sort"
	"testing"

	"provpriv/internal/privacy"
	"provpriv/internal/workflow"
)

// ScanModuleIDs exposes the scan's raw matches — per phrase, the sorted
// ids of the modules scanMatches finds — to the external differential
// tests (index imports search, so they cannot live in this package).
// ok is false when some phrase matches nothing.
func ScanModuleIDs(spec *workflow.Spec, query [][]string, pol *privacy.Policy, level privacy.Level) (ids [][]string, ok bool) {
	h, err := workflow.NewHierarchy(spec)
	if err != nil {
		return nil, false
	}
	states, err := scanMatches(spec, h, query, pol, level)
	if err != nil {
		return nil, false
	}
	for _, ps := range states {
		var one []string
		for _, rm := range ps.matches {
			one = append(one, rm.Module.ID)
		}
		sort.Strings(one)
		ids = append(ids, one)
	}
	return ids, true
}

// MustView draws a result, failing the test if its prefix cannot be
// expanded.
func MustView(tb testing.TB, r *Result) *workflow.View {
	tb.Helper()
	v, err := r.View()
	if err != nil {
		tb.Fatalf("View: %v", err)
	}
	return v
}

// Shown exposes the hierarchy rule minimalView reports matches by: whether
// the view of prefix p of h shows the module with id moduleID itself.
func Shown(h *workflow.Hierarchy, p workflow.Prefix, moduleID string) bool {
	at := h.Place(moduleID)
	return at != nil && at.Chain != nil && shown(h.Bits(p), at)
}

// ReferenceSearch exposes referenceSearch to the external differential
// test.
var ReferenceSearch = referenceSearch
