// Package taint closes the trace-string privacy hole of attribute-local
// data masking (Section 3 of the CIDR 2011 paper) by propagating
// protection along execution provenance edges — the provenance-graph
// analogue of dataflow taint tracking.
//
// The hole: module outputs are symbolic computation traces that embed
// the module's input values verbatim (see exec.DefaultFunc), so a
// protected *input* value survives inside every derived item's value
// string even after the protected item itself is masked. Observed
// end-to-end: the public provenance of "prognosis" embedded the raw
// "snps" value.
//
// The fix has three phases:
//
//   - seed: every data item whose attribute the policy protects becomes
//     a taint source, labelled with its raw value and required level;
//   - propagate: labels flow along provenance edges via graph
//     reachability — a derived item is tainted by every protected
//     ancestor (over-approximating is safe: sanitization only acts on
//     values that actually embed a tainted raw value);
//   - sanitize: for a viewer below a label's required level, each
//     embedded occurrence of the raw value is rewritten to its
//     generalized form (when the attribute has a generalization
//     hierarchy) or to an attribute-tagged mask token; when rewriting
//     cannot prove the leak is gone the whole value is redacted.
//
// Analysis (seed + propagate) is separated from application. A Set
// holds an execution's taint sources; which item a source taints is read
// from the item ancestry of the execution's shape (exec.Ancestry, the same
// for every execution of a shape) when that item is masked, so masking a
// view costs its own items and nothing else. The scoping rule: sources come
// from the full execution — a protected item internal to a collapsed
// composite still rides inside the visible items derived from it — targets
// from the view being masked (item ids are stable under exec.Collapse), and
// labels only from attributes above the level the analysis is for.
// Analyze's Set is for Public, so it applies to every collapsed view at
// every access level; AnalyzeIn scoped to a level masks at that level or
// above and refuses to mask below it; MaskInPlace, the repository's cold
// fill, analyses for exactly the level and the view it masks and lets no
// Set escape.
package taint

import (
	"slices"
	"strings"
	"sync"

	"provpriv/internal/exec"
	"provpriv/internal/privacy"
)

// Generalizer coarsens a value by a number of ladder steps. It is the
// interface slice of datapriv.Hierarchy the engine needs, declared here
// so datapriv can delegate to taint without an import cycle.
type Generalizer interface {
	Generalize(v exec.Value, depth int) exec.Value
	MaxDepth() int
}

// Label marks one protected ancestor whose raw value may be embedded in
// a descendant's trace string.
type Label struct {
	ItemID   string        // the protected source item
	Attr     string        // its attribute
	Required privacy.Level // minimum level allowed to see Raw
	Raw      exec.Value    // the raw value to hunt for in descendants
}

// Set is the result of taint analysis over one execution: its taint
// sources — the protected items whose raw values may leak into their
// descendants — and the sanitizer compiled over those values. An item is
// tainted by every source it descends from (the source item included),
// which the Set reads from its ancestry when the item is masked; it keeps
// no per-item list. A nil *Set applies no propagation — sanitization
// degrades to attribute-local masking.
//
// A Set holds only the sources whose required level exceeds the level it
// was analysed for, and records that level: masking below it would miss a
// source it left out, so Apply and ApplyInPlace panic there. A Set is
// immutable once made and safe to share between concurrent Apply calls.
// It is per execution even where executions share a shape: which item
// descends from which is the shape's (exec.Ancestry), but the sources and
// the patterns hold raw values, which are not.
type Set struct {
	level privacy.Level
	anc   *exec.Ancestry
	srcs  []source // in anc.IDs order
	repl  Replacer
}

// source is one taint source: its label, where its item sits in the
// ancestry, and which compiled pattern hunts its raw value.
type source struct {
	Label
	at  int
	pat int32
}

// Replacer exposes the compiled multi-pattern sanitizer (nil when the
// analysis found nothing to protect) — benchmarks and tests use it to
// size their expectations.
func (s *Set) Replacer() *Replacer {
	if s == nil || len(s.repl.pats) == 0 {
		return nil
	}
	return &s.repl
}

// seed makes s, reusing its memory, the analysis of e above level against
// anc, the item ancestry of e's shape, and reports whether e has a source.
func (s *Set) seed(en *Engine, e *exec.Execution, anc *exec.Ancestry, level privacy.Level) bool {
	s.level, s.anc, s.srcs = level, anc, s.srcs[:0]
	for i, id := range anc.IDs {
		it := e.Items[id]
		// Redacted or empty values cannot leak through substrings.
		if req := en.Policy.DataLevels[it.Attr]; req > level && !it.Redacted && it.Value != "" {
			s.srcs = append(s.srcs, source{Label: Label{ItemID: id, Attr: it.Attr, Required: req, Raw: it.Value}, at: i})
		}
	}
	s.compile()
	return len(s.srcs) > 0
}

// compile builds the sanitizer over the sources' raw values — one pattern
// per distinct (attr, raw), in priority order — and points every source at
// its pattern.
func (s *Set) compile() {
	pats := s.repl.pats[:0]
	for _, src := range s.srcs {
		pats = append(pats, pattern{attr: src.Attr, raw: string(src.Raw), required: src.Required})
	}
	slices.SortFunc(pats, byPriority)
	pats = slices.CompactFunc(pats, func(a, b pattern) bool { return a.attr == b.attr && a.raw == b.raw })
	for k := range s.srcs {
		src := &s.srcs[k]
		i, _ := slices.BinarySearchFunc(pats, pattern{attr: src.Attr, raw: string(src.Raw)}, byPriority)
		src.pat = int32(i)
	}
	s.repl.pats = pats
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

// Report accounts for what a sanitization pass did — the utility side of
// the privacy/utility trade-off. Every item lands in exactly one bucket.
type Report struct {
	Visible       int // shown unmodified
	Generalized   int // protected items coarsened via a hierarchy
	Redacted      int // protected items fully masked (no hierarchy, or rewrite failed)
	Rewritten     int // visible items whose embedded tainted values were rewritten
	TaintRedacted int // visible items redacted because rewriting could not remove a leak
}

// Total returns the number of items processed.
func (r Report) Total() int {
	return r.Visible + r.Generalized + r.Redacted + r.Rewritten + r.TaintRedacted
}

// UtilityScore is the fraction of information surviving masking: full
// credit for visible items, 3/4 for rewritten ones (the item's own value
// shape survives, only embedded ancestors are coarsened), half for
// generalized ones, none for redactions.
func (r Report) UtilityScore() float64 {
	t := r.Total()
	if t == 0 {
		return 1
	}
	return (float64(r.Visible) + 0.75*float64(r.Rewritten) + 0.5*float64(r.Generalized)) / float64(t)
}

// Engine seeds, propagates and applies taint for one policy.
type Engine struct {
	Policy *privacy.Policy
	// Generalizers maps attributes to their generalization ladders
	// (typically datapriv.Hierarchy values). Attributes without an entry
	// fall back to mask tokens / full redaction.
	Generalizers map[string]Generalizer
}

// NewEngine builds a taint engine. generalizers may be nil.
func NewEngine(pol *privacy.Policy, generalizers map[string]Generalizer) *Engine {
	return &Engine{Policy: pol, Generalizers: generalizers}
}

func (en *Engine) generalizer(attr string) Generalizer {
	g, ok := en.Generalizers[attr]
	if !ok || g == nil || g.MaxDepth() == 0 {
		return nil
	}
	return g
}

// Analyze seeds taint labels from the policy's protected attributes and
// propagates them along provenance edges: an item is tainted by every
// protected item whose producer reaches its producer. The Set is
// level-independent (labels carry their required level) and applies to
// any collapsed view of e at any level, so it is computed once per
// execution.
//
// Run Analyze on the *full* execution, not a collapsed view: a protected
// item internal to a collapsed composite is absent from the view's item
// set, but its raw value still rides inside downstream trace strings.
//
// Analyze derives e's item ancestry itself; a caller that holds the
// ancestry of e's shape uses AnalyzeIn.
func (en *Engine) Analyze(e *exec.Execution) *Set { return en.AnalyzeIn(e, nil, privacy.Public) }

// AnalyzeIn is Analyze against anc, the item ancestry of e's shape, scoped
// to a viewer at level: only attributes above level seed labels, and the
// Set masks at level or above only. "Whose producer reaches whose" is the
// same for every execution of a shape (exec.SameShape) and most of what an
// analysis costs, so it is derived once per shape; what is left per
// execution is what depends on e's values — which protected items carry a
// value that can leak, and the sanitizer compiled over those values. A nil
// anc is derived from e.
func (en *Engine) AnalyzeIn(e *exec.Execution, anc *exec.Ancestry, level privacy.Level) *Set {
	if anc == nil {
		anc = exec.NewAncestry(e)
	}
	set := new(Set)
	set.seed(en, e, anc, level)
	return set
}

// Sanitize is Analyze followed by Apply — the one-shot entry point for
// masking an execution you hold in full.
func (en *Engine) Sanitize(e *exec.Execution, level privacy.Level) (*exec.Execution, Report) {
	return en.Apply(e, level, en.Analyze(e))
}

// Apply returns a deep copy of e masked for a viewer at the given level
// using a precomputed taint set (nil set = attribute-local masking
// only), and leaves e alone. The copy shares no mutable state with e —
// nodes, frames, edges and item slices are all fresh — so later mutation
// of either side can never corrupt the other. The masking itself is
// ApplyInPlace on the copy.
func (en *Engine) Apply(e *exec.Execution, level privacy.Level, set *Set) (*exec.Execution, Report) {
	out := &exec.Execution{
		ID:     e.ID,
		SpecID: e.SpecID,
		Nodes:  make([]*exec.Node, 0, len(e.Nodes)),
		Edges:  make([]exec.Edge, 0, len(e.Edges)),
		Items:  make(map[string]*exec.DataItem, len(e.Items)),
	}
	for _, n := range e.Nodes {
		cp := *n
		cp.Frames = append([]exec.Frame(nil), n.Frames...)
		out.Nodes = append(out.Nodes, &cp)
	}
	for _, ed := range e.Edges {
		out.Edges = append(out.Edges, exec.Edge{
			From: ed.From, To: ed.To, Items: append([]string(nil), ed.Items...),
		})
	}
	for id, it := range e.Items {
		cp := *it
		out.Items[id] = &cp
	}
	return out, en.ApplyInPlace(out, level, set)
}

// ApplyInPlace masks e itself for a viewer at the given level — every
// item's Value/Redacted is rewritten where the level requires it and the
// execution is renamed "<id>/masked@<level>" — and returns the report.
// Only item values change, never nodes, edges or the item set, so a
// graph derived from e before the call still describes it after. The
// caller must own e and every item in it outright (a view fresh from
// exec.CollapseIn does; a stored or shared execution never does); Apply
// is the same code behind a deep copy. It panics when set was analysed
// for a level above the given one.
func (en *Engine) ApplyInPlace(e *exec.Execution, level privacy.Level, set *Set) Report {
	if set != nil && level < set.level {
		panic("taint: a Set analysed for " + set.level.String() + " cannot mask at " + level.String())
	}
	if set == nil || len(set.srcs) == 0 {
		return en.mask(e, level, nil)
	}
	ap := applierPool.Get().(*applier)
	defer ap.release()
	ap.arm(en, set, level)
	return en.mask(e, level, ap)
}

// MaskInPlace is ApplyInPlace(view, level, Analyze(full)) — view a
// collapsed view of full that the caller owns outright, anc the item
// ancestry of full's shape — with the analysis scoped to what a viewer at
// level may not see: sources are full's items above level, targets view's
// items. It makes no Set that outlives the call; a level at or above every
// protected attribute arms no sanitizer at all. This is the one-copy half
// of the repository's cold fill.
func (en *Engine) MaskInPlace(view, full *exec.Execution, anc *exec.Ancestry, level privacy.Level) Report {
	if !en.hides(level) {
		return en.mask(view, level, nil)
	}
	ap := applierPool.Get().(*applier)
	defer ap.release()
	if !ap.own.seed(en, full, anc, level) {
		return en.mask(view, level, nil)
	}
	ap.arm(en, &ap.own, level)
	return en.mask(view, level, ap)
}

// hides reports whether the policy protects an attribute from level.
func (en *Engine) hides(level privacy.Level) bool {
	for _, req := range en.Policy.DataLevels {
		if req > level {
			return true
		}
	}
	return false
}

// mask is the masking loop of ApplyInPlace and MaskInPlace; a nil ap
// rewrites no embedded value.
func (en *Engine) mask(e *exec.Execution, level privacy.Level, ap *applier) Report {
	var rep Report
	e.ID = e.ID + "/masked@" + level.String()
	for id, it := range e.Items {
		required := en.Policy.DataLevels[it.Attr]
		ap.activate(id)
		if level >= required {
			// Attribute visible at this level; embedded protected
			// ancestors may still leak through the trace string.
			v, changed, clean := ap.rewrite(it.Value)
			switch {
			case !clean:
				it.Value, it.Redacted = "", true
				rep.TaintRedacted++
			case changed:
				it.Value = v
				rep.Rewritten++
			default:
				rep.Visible++
			}
			continue
		}
		// The item itself is protected: generalize when a ladder exists.
		// The generalized form of a *derived* protected item may still
		// embed protected ancestors, so it passes through the same
		// rewrite-and-verify gate (which also catches a ladder whose
		// output contains the item's own raw value).
		if g := en.generalizer(it.Attr); g != nil {
			gen := g.Generalize(it.Value, int(required-level))
			if v, _, clean := ap.rewrite(gen); clean {
				it.Value = v
				rep.Generalized++
				continue
			}
		}
		it.Value, it.Redacted = "", true
		rep.Redacted++
	}
	return rep
}

// applier is the pooled per-mask working state of the compiled sanitizer:
// the active-pattern bitset for the item being masked, the lazily filled
// per-level replacement table, the two closures handed to the replacer
// (created once per applier, not per item), and the Set MaskInPlace
// analyses into.
type applier struct {
	en    *Engine
	set   *Set
	level privacy.Level
	own   Set

	active  []uint64 // bitset over the replacer's patterns
	marked  []int32  // bits set for the current item: its active patterns
	repl    []exec.Value
	replSet []bool

	isActive func(int32) bool
	replFor  func(int32) string
}

var applierPool = sync.Pool{New: func() any { return new(applier) }}

// arm readies ap to mask with set at level.
func (ap *applier) arm(en *Engine, set *Set, level privacy.Level) {
	ap.en, ap.set, ap.level = en, set, level
	nPats := len(set.repl.pats)
	words := (nPats + 63) / 64
	if cap(ap.active) < words {
		ap.active = make([]uint64, words)
	} else {
		ap.active = ap.active[:words]
		clear(ap.active)
	}
	if cap(ap.repl) < nPats {
		ap.repl = make([]exec.Value, nPats)
		ap.replSet = make([]bool, nPats)
	} else {
		ap.repl = ap.repl[:nPats]
		ap.replSet = ap.replSet[:nPats]
		clear(ap.replSet)
	}
	ap.marked = ap.marked[:0]
	if ap.isActive == nil {
		ap.isActive = func(p int32) bool { return ap.active[p/64]&(1<<(uint(p)%64)) != 0 }
		ap.replFor = func(p int32) string {
			if !ap.replSet[p] {
				pt := ap.set.repl.pats[p]
				ap.repl[p] = ap.en.replacement(
					Label{Attr: pt.attr, Raw: exec.Value(pt.raw), Required: pt.required}, ap.level)
				ap.replSet[p] = true
			}
			return string(ap.repl[p])
		}
	}
}

// release returns ap to the pool holding no raw value.
func (ap *applier) release() {
	clear(ap.own.srcs)
	clear(ap.own.repl.pats)
	ap.en, ap.set, ap.own.anc = nil, nil, nil
	applierPool.Put(ap)
}

// activate arms the patterns tainting the given item that the viewer's
// level is not entitled to, clearing the previous item's first.
func (ap *applier) activate(itemID string) {
	if ap == nil {
		return
	}
	for _, p := range ap.marked {
		ap.active[p/64] &^= 1 << (uint(p) % 64)
	}
	ap.marked = ap.marked[:0]
	anc := ap.set.anc
	j, ok := anc.Index(itemID)
	if !ok {
		return
	}
	for _, src := range ap.set.srcs {
		p := src.pat
		if src.Required > ap.level && ap.active[p/64]&(1<<(uint(p)%64)) == 0 && anc.Descends(src.at, j) {
			ap.active[p/64] |= 1 << (uint(p) % 64)
			ap.marked = append(ap.marked, p)
		}
	}
}

// rewrite sanitizes one value against the currently activated patterns.
// Same contract as the replacer's rewrite; items with no active pattern
// short-circuit without scanning the value.
func (ap *applier) rewrite(v exec.Value) (exec.Value, bool, bool) {
	if ap == nil || len(ap.marked) == 0 {
		return v, false, true
	}
	out, changed, clean := ap.set.repl.rewrite(string(v), ap.isActive, ap.replFor)
	return exec.Value(out), changed, clean
}

// replacement is the stand-in for one tainted value: the generalization
// of the raw value at the viewer's level gap when the attribute has a
// ladder and the generalized form actually drops the raw value, else an
// attribute-tagged mask token.
func (en *Engine) replacement(l Label, level privacy.Level) exec.Value {
	if g := en.generalizer(l.Attr); g != nil {
		gen := g.Generalize(l.Raw, int(l.Required-level))
		if !strings.Contains(string(gen), string(l.Raw)) {
			return gen
		}
	}
	return exec.Value("[" + l.Attr + ":*]")
}
