// Package modpriv implements module privacy (Section 3 of the CIDR 2011
// paper and its companion technical report, Davidson et al.,
// arXiv:1005.5543, cited as [4]): guaranteeing that the functionality of
// a private module — the mapping it defines between inputs and outputs —
// is not revealed to users without the required access level, by hiding
// a carefully chosen subset of intermediate data in ALL executions.
//
// A module is viewed as a finite relation over its input and output
// attributes. Hiding a set H of attributes leaves an adversary, for any
// input x, with a set of possible outputs OUT_x: the outputs consistent
// with some visibly-indistinguishable input row, with hidden output
// attributes free over their domains. The module is Γ-private under H
// when min_x |OUT_x| ≥ Γ. Since several hidden sets may achieve a given
// Γ and attributes carry utility weights, choosing the cheapest safe
// subset is an optimization problem; this package provides an exact
// exhaustive solver and a greedy heuristic, compared in benchmark B1.
package modpriv

import (
	"fmt"
	"sort"
	"strings"

	"provpriv/internal/exec"
)

// Domain maps attribute names to their finite value domains. Module
// privacy is defined over finite domains; real-world attributes are
// binned into finite categories before analysis.
type Domain map[string][]exec.Value

// Size returns |dom(attr)|, or 0 if unknown.
func (d Domain) Size(attr string) int { return len(d[attr]) }

// Row is one entry of a module relation: a full input assignment and
// the corresponding output assignment.
type Row struct {
	In  map[string]exec.Value
	Out map[string]exec.Value
}

// Relation is the full extension of a module function over its input
// domain: one row per input combination. This is the object the privacy
// analysis works on.
type Relation struct {
	ModuleID string
	Inputs   []string
	Outputs  []string
	Rows     []Row
	Dom      Domain

	lookup map[string]map[string]exec.Value // built lazily by Apply
}

// Enumerate builds the relation of fn by evaluating it on the full
// cartesian product of the input domains. The number of rows is the
// product of the input domain sizes; callers should keep domains small
// (the analysis is exact, not sampled).
func Enumerate(moduleID string, fn exec.Func, inputs, outputs []string, dom Domain) (*Relation, error) {
	for _, a := range inputs {
		if dom.Size(a) == 0 {
			return nil, fmt.Errorf("modpriv: input %q has empty domain", a)
		}
	}
	for _, a := range outputs {
		if dom.Size(a) == 0 {
			return nil, fmt.Errorf("modpriv: output %q has empty domain", a)
		}
	}
	rel := &Relation{
		ModuleID: moduleID,
		Inputs:   append([]string(nil), inputs...),
		Outputs:  append([]string(nil), outputs...),
		Dom:      dom,
	}
	idx := make([]int, len(inputs))
	for {
		in := make(map[string]exec.Value, len(inputs))
		for i, a := range inputs {
			in[a] = dom[a][idx[i]]
		}
		out := fn(in)
		outCopy := make(map[string]exec.Value, len(outputs))
		for _, a := range outputs {
			v, ok := out[a]
			if !ok {
				return nil, fmt.Errorf("modpriv: module %s produced no output %q", moduleID, a)
			}
			if !containsValue(dom[a], v) {
				return nil, fmt.Errorf("modpriv: module %s output %s=%q outside its domain", moduleID, a, v)
			}
			outCopy[a] = v
		}
		rel.Rows = append(rel.Rows, Row{In: in, Out: outCopy})
		// Advance the odometer.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(dom[inputs[i]]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return rel, nil
}

func containsValue(vs []exec.Value, v exec.Value) bool {
	for _, x := range vs {
		if x == v {
			return true
		}
	}
	return false
}

// Attrs returns all attribute names of the relation (inputs then
// outputs).
func (r *Relation) Attrs() []string {
	out := make([]string, 0, len(r.Inputs)+len(r.Outputs))
	out = append(out, r.Inputs...)
	out = append(out, r.Outputs...)
	return out
}

// Apply evaluates the relation as a function: it looks up the row whose
// input assignment matches in (all inputs must be present) and returns
// its outputs. ok is false when no row matches.
func (r *Relation) Apply(in map[string]exec.Value) (map[string]exec.Value, bool) {
	if r.lookup == nil {
		r.buildLookup()
	}
	out, ok := r.lookup[assignKey(r.Inputs, in)]
	return out, ok
}

func (r *Relation) buildLookup() {
	r.lookup = make(map[string]map[string]exec.Value, len(r.Rows))
	for _, row := range r.Rows {
		r.lookup[assignKey(r.Inputs, row.In)] = row.Out
	}
}

func assignKey(attrs []string, m map[string]exec.Value) string {
	var b strings.Builder
	for _, a := range attrs {
		b.WriteString(a)
		b.WriteByte('=')
		b.WriteString(string(m[a]))
		b.WriteByte(';')
	}
	return b.String()
}

// Hidden is a set of hidden attribute names.
type Hidden map[string]bool

// NewHidden builds a Hidden set.
func NewHidden(attrs ...string) Hidden {
	h := make(Hidden, len(attrs))
	for _, a := range attrs {
		h[a] = true
	}
	return h
}

// List returns the hidden attributes in sorted order.
func (h Hidden) List() []string {
	out := make([]string, 0, len(h))
	for a := range h {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

func (h Hidden) String() string { return "{" + strings.Join(h.List(), ",") + "}" }

// projKey renders the projection of assignment m onto the visible
// (non-hidden) attributes in attrs, as a canonical string key.
func projKey(attrs []string, m map[string]exec.Value, hidden Hidden) string {
	var b strings.Builder
	for _, a := range attrs {
		if hidden[a] {
			continue
		}
		b.WriteString(a)
		b.WriteByte('=')
		b.WriteString(string(m[a]))
		b.WriteByte(';')
	}
	return b.String()
}

// PrivacyLevel returns min_x |OUT_x| under the hidden set: rows are
// grouped by visible-input projection; within a group the adversary can
// pin the output only up to (a) which distinct visible-output projection
// occurred and (b) the free hidden output attributes. So
//
//	|OUT_x| = #distinct visible-output projections in x's group
//	          × ∏_{hidden output attrs} |dom|
//
// A fully deterministic, fully visible module has level 1.
func (r *Relation) PrivacyLevel(hidden Hidden) int {
	hiddenOutProduct := 1
	for _, a := range r.Outputs {
		if hidden[a] {
			hiddenOutProduct *= r.Dom.Size(a)
		}
	}
	groups := make(map[string]map[string]bool) // visible-in key -> set of visible-out keys
	for _, row := range r.Rows {
		ik := projKey(r.Inputs, row.In, hidden)
		ok := projKey(r.Outputs, row.Out, hidden)
		if groups[ik] == nil {
			groups[ik] = make(map[string]bool)
		}
		groups[ik][ok] = true
	}
	min := -1
	for _, outs := range groups {
		level := len(outs) * hiddenOutProduct
		if min < 0 || level < min {
			min = level
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// IsSafe reports whether the hidden set guarantees Γ-privacy.
func (r *Relation) IsSafe(hidden Hidden, gamma int) bool {
	return r.PrivacyLevel(hidden) >= gamma
}

// MaxLevel returns the privacy level achieved by hiding every attribute
// — the best any hidden set can do. If MaxLevel < Γ, Γ is unachievable
// for this module.
func (r *Relation) MaxLevel() int {
	all := NewHidden(r.Attrs()...)
	return r.PrivacyLevel(all)
}
