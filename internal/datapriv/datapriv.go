// Package datapriv implements data privacy (Section 3 of the CIDR 2011
// paper): intermediate data in an execution may contain sensitive
// information — a social security number, a medical record — that must
// not be revealed to users without the required access level. This is
// the paper's "fairly standard" masking requirement, implemented here
// with two mechanisms:
//
//   - full redaction: the item's value is removed, leaving the item's
//     existence and attribute visible;
//   - generalization: the value is coarsened along a per-attribute
//     generalization hierarchy, with the depth of coarsening growing
//     with the gap between the user's level and the required level.
//
// Masking is taint-aware: because execution item values are symbolic
// computation traces, a protected *input* value survives verbatim
// inside derived items' value strings. The Masker therefore delegates
// to internal/taint, which propagates protection along provenance
// edges and rewrites (or redacts) tainted embedded values, so the
// paper's guarantee — a user below an attribute's required level never
// learns the protected value — holds end-to-end, not just per item.
//
// Masking is monotone in access level: a higher level always sees at
// least as much as a lower one (TestMaskMonotone).
package datapriv

import (
	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/taint"
)

// Hierarchy is a per-attribute generalization ladder. Level 0 is the
// identity; each subsequent level maps values to coarser categories
// (e.g. exact age → age bracket → "adult"). Values missing from a level
// map generalize to the level's Other value.
// The JSON tags are both the wire shape of PUT /api/v1/generalization
// (internal/server) and the payload of the storage engine's RecHier
// records, which persist installed ladders across Save/Load.
type Hierarchy struct {
	Attr   string                      `json:"attr"`
	Levels []map[exec.Value]exec.Value `json:"levels"`
	Other  exec.Value                  `json:"other,omitempty"` // fallback for unmapped values; default "*"
}

// Generalize coarsens v to the given depth. Depth 0 returns v; depths
// beyond the ladder clamp to the last level.
func (h *Hierarchy) Generalize(v exec.Value, depth int) exec.Value {
	if depth <= 0 || len(h.Levels) == 0 {
		return v
	}
	if depth > len(h.Levels) {
		depth = len(h.Levels)
	}
	cur := v
	for i := 0; i < depth; i++ {
		next, ok := h.Levels[i][cur]
		if !ok {
			if h.Other != "" {
				return h.Other
			}
			return "*"
		}
		cur = next
	}
	return cur
}

// MaxDepth returns the number of generalization levels.
func (h *Hierarchy) MaxDepth() int { return len(h.Levels) }

// Masker applies a policy's data-privacy requirements to executions.
type Masker struct {
	Policy      *privacy.Policy
	Hierarchies map[string]*Hierarchy // optional, per attribute
}

// NewMasker builds a Masker. hierarchies may be nil (full redaction for
// every protected attribute).
func NewMasker(p *privacy.Policy, hierarchies map[string]*Hierarchy) *Masker {
	return &Masker{Policy: p, Hierarchies: hierarchies}
}

// Report accounts for what a masking pass did — the utility side of the
// privacy/utility trade-off. It is the taint engine's report: masking
// and taint sanitization are one pass.
type Report = taint.Report

// Engine returns the taint engine implementing this masker's policy:
// the same policy and generalization ladders, with nil hierarchies
// filtered out. Callers that keep one engine per installed policy
// (internal/repo) analyze and apply through it directly.
func (m *Masker) Engine() *taint.Engine {
	var gens map[string]taint.Generalizer
	if len(m.Hierarchies) > 0 {
		gens = make(map[string]taint.Generalizer, len(m.Hierarchies))
		for a, h := range m.Hierarchies {
			if h != nil {
				gens[a] = h
			}
		}
	}
	return taint.NewEngine(m.Policy, gens)
}

// Mask returns a deep copy of the execution as seen by a user at the
// given level, plus a report. For each data item whose attribute
// requires a higher level: if a hierarchy exists for the attribute, the
// value is generalized by (required − level) steps (clamped); otherwise
// it is redacted outright. Values derived from protected items are
// taint-sanitized: embedded occurrences of a protected ancestor's raw
// value are rewritten to their generalized form or redacted (see
// internal/taint).
//
// Mask analyzes e itself, which is correct when e is the full
// execution. To mask a collapsed view, use MaskView with the full
// execution the view came from — a protected item internal to a
// collapsed composite is absent from the view but still tainted its
// descendants.
//
//provlint:ignore unserved reference: the masking oracle of datapriv_test.go and audit_test.go
func (m *Masker) Mask(e *exec.Execution, level privacy.Level) (*exec.Execution, Report) {
	en := m.Engine()
	return en.Apply(e, level, en.Analyze(e))
}

// MaskView masks a derived view (e.g. an exec.Collapse result) of the
// full execution it was computed from: taint is analyzed on full —
// where every protected ancestor is still present — and applied to
// view. Item ids are stable under collapse, so the analysis transfers.
func (m *Masker) MaskView(full, view *exec.Execution, level privacy.Level) (*exec.Execution, Report) {
	en := m.Engine()
	return en.Apply(view, level, en.Analyze(full))
}
