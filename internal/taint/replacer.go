// Compiled multi-pattern sanitizer. The per-label rewrite loop the
// engine started with re-scanned and re-allocated every trace string
// once per protected label (O(labels × length) strings.Contains/
// ReplaceAll passes, the dominant cost in BenchmarkTaintMask). The
// Replacer compiles all protected raw values of one taint analysis into
// a single prioritized pattern set, so sanitizing a value is one mark
// pass, one splice and one verification pass — never a chain of
// intermediate string copies.
//
// The mark pass has one tier, whatever the pattern count: occurrences are
// found with the stdlib's vectorized strings.Index per active pattern. For
// the few-long-patterns shape real traces have, SIMD substring search beats
// a byte-at-a-time automaton by an order of magnitude. Its cost is linear in
// the active patterns, so there is no cliff, and no measured workload puts
// more than 32 of them on one value: an O(length) automaton tier would be a
// selection with nothing on its far side.
//
// Match semantics mirror the sequential loop the pass replaces:
// occurrences are consumed left to right, the longest pattern starting
// at a position wins (the loop got this by replacing longest-raw-first),
// and of two labels sharing one raw value the one sorting first claims
// the match. The implementations are byte-identical on every input
// whose replacement text cannot itself combine with neighboring text
// into another protected value — which trace strings never do — and the
// differential property/fuzz tests in replacer_test.go pin that
// equivalence over the whole existing corpus and over hand-built inputs
// with hundreds of active patterns. When they could diverge (pathological
// overlapping patterns), both remain leak-free because both gate on the
// same verify-or-redact pass.
package taint

import (
	"cmp"
	"strings"
	"sync"

	"provpriv/internal/privacy"
)

// pattern is one compiled protected value: the (attr, raw) identity the
// engine needs to pick a replacement, plus the level below which the
// raw value must not be served.
type pattern struct {
	attr     string
	raw      string
	required privacy.Level
}

// Replacer is the compiled sanitizer over the protected raw values of
// one taint Set: patterns deduplicated by (attr, raw) and in byPriority
// order. Immutable after compile; safe for concurrent use — per-call
// scratch comes from a pool.
type Replacer struct {
	pats []pattern
}

// byPriority orders patterns as the rewrite loop ordered its labels:
// descending raw length (so a raw that contains another raw is replaced
// first), then attr, then raw.
func byPriority(a, b pattern) int {
	return cmp.Or(cmp.Compare(len(b.raw), len(a.raw)), cmp.Compare(a.attr, b.attr), cmp.Compare(a.raw, b.raw))
}

// Patterns returns how many distinct (attr, raw) patterns are compiled.
func (r *Replacer) Patterns() int { return len(r.pats) }

// replScratch is the pooled per-rewrite working memory: per-position
// best-match tables sized to the value being rewritten and an output
// buffer. Pooling keeps the steady-state sanitization path free of
// per-value allocations beyond the rewritten string itself.
type replScratch struct {
	lens []int32 // lens[i]: length of the winning match starting at i (0 = none)
	pats []int32 // pats[i]: its pattern index
	buf  []byte
}

var scratchPool = sync.Pool{New: func() any { return new(replScratch) }}

func (sc *replScratch) reset(n int) {
	if cap(sc.lens) < n {
		sc.lens = make([]int32, n)
		sc.pats = make([]int32, n)
	} else {
		sc.lens = sc.lens[:n]
		sc.pats = sc.pats[:n]
		for i := range sc.lens {
			sc.lens[i] = 0
		}
	}
}

// mark records, per start position of s, the longest active match
// beginning there (ties broken by pattern priority). Reports whether
// any match was found; sc is only initialized once the first match
// appears, so clean strings — the common case — never touch the tables.
func (sc *replScratch) mark(s string, start int, l, p int32, any bool) bool {
	if !any {
		sc.reset(len(s))
	}
	if l > sc.lens[start] {
		sc.lens[start] = l
		sc.pats[start] = p
	}
	return true
}

// rewrite sanitizes s: mark the winning (leftmost, longest, active)
// match per start position, then splice replacements in one pass.
// active selects which compiled patterns apply (per-item taint filtering
// plus the viewer-level gate); repl supplies each pattern's replacement.
// Returns the rewritten string, whether anything changed, and whether the
// result provably embeds no active raw value — callers must redact when
// clean is false, exactly as with the sequential loop.
func (r *Replacer) rewrite(s string, active func(int32) bool, repl func(int32) string) (string, bool, bool) {
	if len(r.pats) == 0 || len(s) == 0 {
		return s, false, true
	}
	sc := scratchPool.Get().(*replScratch)
	defer scratchPool.Put(sc)

	if !r.markIndex(s, active, sc) {
		return s, false, true
	}
	// Splice pass: greedy left-to-right over the winning matches.
	sc.buf = sc.buf[:0]
	for i := 0; i < len(s); {
		if l := sc.lens[i]; l > 0 {
			sc.buf = append(sc.buf, repl(sc.pats[i])...)
			i += int(l)
			continue
		}
		sc.buf = append(sc.buf, s[i])
		i++
	}
	out := string(sc.buf)
	// Prove the leak is gone: a replacement may itself contain another
	// active pattern's raw value (or, pathologically, its own).
	if r.contains(out, active) {
		return s, true, false
	}
	return out, true, true
}

// markIndex is the mark pass: every occurrence (including overlapping
// ones, hence the step by one) of every active pattern, via strings.Index.
func (r *Replacer) markIndex(s string, active func(int32) bool, sc *replScratch) bool {
	any := false
	for p := range r.pats {
		if !active(int32(p)) {
			continue
		}
		raw := r.pats[p].raw
		l := int32(len(raw))
		for off := 0; ; {
			i := strings.Index(s[off:], raw)
			if i < 0 {
				break
			}
			start := off + i
			// Equal-length ties: the first pattern in priority order that
			// marks a start keeps it (strict > in mark), matching the
			// sequential loop's first-ReplaceAll-wins behavior.
			any = sc.mark(s, start, l, int32(p), any)
			off = start + 1
		}
	}
	return any
}

// contains reports whether s embeds any active pattern — the verify pass.
func (r *Replacer) contains(s string, active func(int32) bool) bool {
	for p := range r.pats {
		if active(int32(p)) && strings.Contains(s, r.pats[p].raw) {
			return true
		}
	}
	return false
}
