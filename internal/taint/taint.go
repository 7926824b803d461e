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
// Analysis (seed + propagate) is separated from application: a Set
// computed on the full execution applies to every collapsed view of it at
// every access level (item ids are stable
// under exec.Collapse, and labels carry their required level so level
// filtering happens at apply time). Within analysis, the structural half —
// one transitive closure, which item's producer reaches which — is the
// same for every execution of a shape and is taken from exec.Ancestry.
package taint

import (
	"slices"
	"sort"
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

// Set is the result of taint analysis over one execution: for each item
// id, the protected ancestors whose values may leak into it (including
// the source item itself). A nil *Set applies no propagation —
// sanitization degrades to attribute-local masking.
//
// A Set is immutable once Analyze returns and safe to share between
// concurrent Apply calls. The compiled sanitizer rides along: the pattern
// set over all protected raw values is built once here, not per item.
// A Set is per execution even where executions share a shape: which item
// descends from which is the shape's (exec.Ancestry, read by AnalyzeIn),
// but the labels and the patterns hold raw values, which are not.
type Set struct {
	byItem map[string][]Label
	labels int

	// repl is the sanitizer compiled over every seed label's raw
	// value; patIdx maps each item to the indices of the
	// patterns that taint it. Both are nil when nothing is protected.
	repl   *Replacer
	patIdx map[string][]int32
}

// Replacer exposes the compiled multi-pattern sanitizer (nil when the
// analysis found nothing to protect) — benchmarks and tests use it to
// size their expectations.
func (s *Set) Replacer() *Replacer {
	if s == nil {
		return nil
	}
	return s.repl
}

// compile builds the shared sanitizer from the seed labels and the
// per-item pattern index lists from byItem. seed must contain every
// label that appears in byItem.
func (s *Set) compile(seed []Label) {
	s.repl = compileReplacer(seed)
	type key struct {
		attr string
		raw  string
	}
	idx := make(map[key]int32, len(s.repl.pats))
	for i, p := range s.repl.pats {
		idx[key{p.attr, p.raw}] = int32(i)
	}
	// One backing array holds every item's pattern list: at most one
	// index per (item, label) pair, so it never regrows under the carves.
	s.patIdx = make(map[string][]int32, len(s.byItem))
	arena := make([]int32, 0, s.labels)
	for id, labels := range s.byItem {
		lo := len(arena)
		for _, l := range labels {
			if pi := idx[key{l.Attr, string(l.Raw)}]; !slices.Contains(arena[lo:], pi) {
				arena = append(arena, pi)
			}
		}
		s.patIdx[id] = arena[lo:len(arena):len(arena)]
	}
}

// LabelsFor returns the labels tainting an item that a viewer at the
// given level is not entitled to, in deterministic order.
func (s *Set) LabelsFor(itemID string, level privacy.Level) []Label {
	if s == nil {
		return nil
	}
	var out []Label
	for _, l := range s.byItem[itemID] {
		if l.Required > level {
			out = append(out, l)
		}
	}
	return out
}

// Items returns how many items carry at least one label.
func (s *Set) Items() int {
	if s == nil {
		return 0
	}
	return len(s.byItem)
}

// Labels returns the total number of (item, label) taint pairs.
func (s *Set) Labels() int {
	if s == nil {
		return 0
	}
	return s.labels
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
// any collapsed view of e, so it is computed once per execution.
//
// Run Analyze on the *full* execution, not a collapsed view: a protected
// item internal to a collapsed composite is absent from the view's item
// set, but its raw value still rides inside downstream trace strings.
//
// Analyze derives e's item ancestry itself; a caller that holds the
// ancestry of e's shape uses AnalyzeIn.
func (en *Engine) Analyze(e *exec.Execution) *Set { return en.AnalyzeIn(e, nil) }

// AnalyzeIn is Analyze against anc, the item ancestry of e's shape. "Whose
// producer reaches whose" is the same for every execution of a shape
// (exec.SameShape) and most of what an analysis costs, so it is derived
// once per shape; what is left per execution is what depends on e's
// values — which protected items carry a value that can leak, and the
// sanitizer compiled over those values. A nil anc is derived from e.
func (en *Engine) AnalyzeIn(e *exec.Execution, anc *exec.Ancestry) *Set {
	protected := en.Policy.ProtectedAttrs(privacy.Public)
	set := &Set{byItem: make(map[string][]Label)}
	if len(protected) == 0 {
		return set
	}
	if anc == nil {
		anc = exec.NewAncestry(e)
	}
	var labels []Label
	var srcs []int // labels[k] is the item anc.IDs[srcs[k]]
	for i, id := range anc.IDs {
		it := e.Items[id]
		req, ok := protected[it.Attr]
		// Redacted or empty values cannot leak through substrings.
		if !ok || it.Redacted || it.Value == "" {
			continue
		}
		labels = append(labels, Label{ItemID: id, Attr: it.Attr, Required: req, Raw: it.Value})
		srcs = append(srcs, i)
	}
	if len(labels) == 0 {
		return set
	}
	// An item carries, in label order, every label whose source it
	// descends from. Count the pairs first so all the lists are carved, at
	// their exact lengths, out of one backing array.
	for j := range anc.IDs {
		for _, src := range srcs {
			if anc.Descends(src, j) {
				set.labels++
			}
		}
	}
	arena := make([]Label, 0, set.labels)
	for j, id := range anc.IDs {
		lo := len(arena)
		for k, src := range srcs {
			if anc.Descends(src, j) {
				arena = append(arena, labels[k])
			}
		}
		if len(arena) > lo {
			set.byItem[id] = arena[lo:len(arena):len(arena)]
		}
	}
	set.compile(labels)
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
// exec.CollapseIn does; a stored or shared execution never does): this
// is the one-copy half of the repository's cold fill, and Apply is the
// same code behind a deep copy.
func (en *Engine) ApplyInPlace(e *exec.Execution, level privacy.Level, set *Set) Report {
	var rep Report
	e.ID = e.ID + "/masked@" + level.String()
	ap := acquireApplier(en, set, level)
	defer ap.release()
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

// applier is the pooled per-Apply working state of the compiled
// sanitizer: the active-pattern bitset for the item being masked, the
// lazily filled per-level replacement table, and the two closures handed
// to the replacer (created once per Apply, not per item).
type applier struct {
	en    *Engine
	set   *Set
	level privacy.Level

	active  []uint64 // bitset over the replacer's patterns
	marked  []int32  // bits set for the current item: its active patterns
	repl    []exec.Value
	replSet []bool

	isActive func(int32) bool
	replFor  func(int32) string
}

var applierPool = sync.Pool{New: func() any { return new(applier) }}

func acquireApplier(en *Engine, set *Set, level privacy.Level) *applier {
	ap := applierPool.Get().(*applier)
	ap.en, ap.set, ap.level = en, set, level
	nPats := 0
	if set != nil && set.repl != nil {
		nPats = len(set.repl.pats)
	}
	words := (nPats + 63) / 64
	if cap(ap.active) < words {
		ap.active = make([]uint64, words)
	} else {
		ap.active = ap.active[:words]
		for i := range ap.active {
			ap.active[i] = 0
		}
	}
	if cap(ap.repl) < nPats {
		ap.repl = make([]exec.Value, nPats)
		ap.replSet = make([]bool, nPats)
	} else {
		ap.repl = ap.repl[:nPats]
		ap.replSet = ap.replSet[:nPats]
		for i := range ap.replSet {
			ap.replSet[i] = false
		}
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
	return ap
}

func (ap *applier) release() {
	ap.en, ap.set = nil, nil
	applierPool.Put(ap)
}

// activate arms the patterns tainting the given item that the viewer's
// level is not entitled to, clearing the previous item's first.
func (ap *applier) activate(itemID string) {
	for _, p := range ap.marked {
		ap.active[p/64] &^= 1 << (uint(p) % 64)
	}
	ap.marked = ap.marked[:0]
	if ap.set == nil || ap.set.repl == nil {
		return
	}
	for _, p := range ap.set.patIdx[itemID] {
		if ap.set.repl.pats[p].required > ap.level {
			ap.active[p/64] |= 1 << (uint(p) % 64)
			ap.marked = append(ap.marked, p)
		}
	}
}

// rewrite sanitizes one value against the currently activated patterns.
// Same contract as the replacer's rewrite; items with no active pattern
// short-circuit without scanning the value.
func (ap *applier) rewrite(v exec.Value) (exec.Value, bool, bool) {
	if len(ap.marked) == 0 {
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

// dedupeLabels drops duplicate (attr, raw) pairs and orders by
// descending raw length (so a raw that contains another raw is replaced
// first), breaking ties lexicographically for determinism.
func dedupeLabels(labels []Label) []Label {
	type key struct {
		attr string
		raw  exec.Value
	}
	seen := make(map[key]bool, len(labels))
	out := make([]Label, 0, len(labels))
	for _, l := range labels {
		k := key{l.Attr, l.Raw}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Raw) != len(out[j].Raw) {
			return len(out[i].Raw) > len(out[j].Raw)
		}
		if out[i].Attr != out[j].Attr {
			return out[i].Attr < out[j].Attr
		}
		return out[i].Raw < out[j].Raw
	})
	return out
}
