package taint

import (
	"provpriv/internal/exec"
	"provpriv/internal/privacy"
)

// Observers of an analysis and the one-shot mask, for this package's
// tests only: nothing served reads a Set's labels or counts.

// Replacer exposes the compiled multi-pattern sanitizer (nil when the
// analysis found nothing to protect) — benchmarks and tests use it to
// size their expectations.
func (s *Set) Replacer() *Replacer {
	if s == nil || len(s.repl.pats) == 0 {
		return nil
	}
	return &s.repl
}

// LabelsFor returns the labels tainting an item that a viewer at the
// given level is not entitled to, in deterministic order.
func (s *Set) LabelsFor(itemID string, level privacy.Level) []Label {
	if s == nil || len(s.srcs) == 0 {
		return nil
	}
	j, ok := s.anc.Index(itemID)
	if !ok {
		return nil
	}
	var out []Label
	for _, src := range s.srcs {
		if src.Required > level && s.anc.Descends(src.at, j) {
			out = append(out, src.Label)
		}
	}
	return out
}

// Items returns how many items carry at least one label.
func (s *Set) Items() int { n, _ := s.count(); return n }

// Labels returns the total number of (item, label) taint pairs.
func (s *Set) Labels() int { _, n := s.count(); return n }

func (s *Set) count() (items, labels int) {
	if s == nil || len(s.srcs) == 0 {
		return 0, 0
	}
	for j := range s.anc.IDs {
		n := 0
		for _, src := range s.srcs {
			if s.anc.Descends(src.at, j) {
				n++
			}
		}
		labels += n
		if n > 0 {
			items++
		}
	}
	return items, labels
}

// Total returns the number of items processed.
func (r Report) Total() int {
	return r.Visible + r.Generalized + r.Redacted + r.Rewritten + r.TaintRedacted
}

// Sanitize is Analyze followed by Apply — the one-shot entry point for
// masking an execution you hold in full.
func (en *Engine) Sanitize(e *exec.Execution, level privacy.Level) (*exec.Execution, Report) {
	return en.Apply(e, level, en.Analyze(e))
}

// Patterns returns how many distinct (attr, raw) patterns are compiled.
func (r *Replacer) Patterns() int { return len(r.pats) }
