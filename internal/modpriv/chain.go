package modpriv

import (
	"fmt"
	"sort"
	"strings"

	"provpriv/internal/exec"
)

// This file implements the workflow dimension of module privacy from
// the paper's companion report [4]: standalone Γ-privacy of a module is
// NOT preserved once its outputs flow through *public* downstream
// modules whose functions are common knowledge. A visible downstream
// output can act as an oracle that re-identifies a hidden intermediate
// value (hide y, publish NOT(y), and y is gone). EffectiveLevel
// quantifies the adversary's real uncertainty for a module followed by
// a public chain; GreedyChainSecureView finds hidden sets that are safe
// with respect to that stronger adversary. The conservative alternative
// is to hide everything downstream.

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

// Compose composes r1 ; r2 into a single relation from r1's inputs to
// r2's outputs. Every input of r2 must be produced by r1. The composed
// module id is "r1;r2".
func Compose(r1, r2 *Relation) (*Relation, error) {
	for _, a := range r2.Inputs {
		if !containsStrSlice(r1.Outputs, a) {
			return nil, fmt.Errorf("modpriv: compose: %s input %q not produced by %s", r2.ModuleID, a, r1.ModuleID)
		}
	}
	out := &Relation{
		ModuleID: r1.ModuleID + ";" + r2.ModuleID,
		Inputs:   append([]string(nil), r1.Inputs...),
		Outputs:  append([]string(nil), r2.Outputs...),
		Dom:      mergeDomains(r1.Dom, r2.Dom),
	}
	for _, row := range r1.Rows {
		mid := make(map[string]exec.Value, len(r2.Inputs))
		for _, a := range r2.Inputs {
			mid[a] = row.Out[a]
		}
		y, ok := r2.Apply(mid)
		if !ok {
			return nil, fmt.Errorf("modpriv: compose: %s has no row for intermediate %v", r2.ModuleID, mid)
		}
		out.Rows = append(out.Rows, Row{In: row.In, Out: y})
	}
	return out, nil
}

func containsStrSlice(s []string, x string) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

func mergeDomains(a, b Domain) Domain {
	m := make(Domain, len(a)+len(b))
	for k, v := range a {
		m[k] = v
	}
	for k, v := range b {
		m[k] = v
	}
	return m
}

// EffectiveLevel computes min_x |OUT_x| for rel against an adversary
// who additionally knows the functions of the public downstream chain
// and sees its visible outputs. Each chain element must consume only
// attributes produced by the previous stage (rel's outputs for the
// first element).
//
// For every input row x, a candidate full output y ∈ Dom(rel.Outputs)
// survives iff (a) y agrees with the true output on rel's visible
// output attributes, and (b) pushing y through the chain reproduces
// every visible downstream attribute the adversary observed. The level
// is the minimum surviving-candidate count over all rows.
func EffectiveLevel(rel *Relation, chain []*Relation, hidden Hidden) (int, error) {
	if err := checkChain(rel, chain); err != nil {
		return 0, err
	}
	candidates := enumerateAssignments(rel.Outputs, rel.Dom)
	min := -1
	for _, row := range rel.Rows {
		// The adversary's observations for this run.
		trueVisOut := projKey(rel.Outputs, row.Out, hidden)
		trueChainSigs, err := chainSignature(chain, row.Out, hidden)
		if err != nil {
			return 0, err
		}
		count := 0
		for _, y := range candidates {
			if projKey(rel.Outputs, y, hidden) != trueVisOut {
				continue
			}
			sig, err := chainSignature(chain, y, hidden)
			if err != nil {
				return 0, err
			}
			if sig == trueChainSigs {
				count++
			}
		}
		// Rows with visibly identical inputs widen the candidate set:
		// the adversary cannot tell which row ran. We take the stricter
		// per-row bound (visible inputs assumed known), matching the
		// worst case where the adversary supplies the input ("they do
		// not want someone who may happen to have access to their SNP
		// and ethnicity information...").
		if min < 0 || count < min {
			min = count
		}
	}
	if min < 0 {
		return 0, nil
	}
	return min, nil
}

func checkChain(rel *Relation, chain []*Relation) error {
	avail := append([]string(nil), rel.Outputs...)
	for _, c := range chain {
		for _, a := range c.Inputs {
			if !containsStrSlice(avail, a) {
				return fmt.Errorf("modpriv: chain module %s consumes %q not produced upstream", c.ModuleID, a)
			}
		}
		avail = append(avail, c.Outputs...)
	}
	return nil
}

// chainSignature pushes a candidate first-stage output through the
// chain and renders the visible projection of every stage's outputs.
func chainSignature(chain []*Relation, firstOut map[string]exec.Value, hidden Hidden) (string, error) {
	env := make(map[string]exec.Value, len(firstOut))
	for k, v := range firstOut {
		env[k] = v
	}
	var b strings.Builder
	for _, c := range chain {
		in := make(map[string]exec.Value, len(c.Inputs))
		for _, a := range c.Inputs {
			in[a] = env[a]
		}
		out, ok := c.Apply(in)
		if !ok {
			return "", fmt.Errorf("modpriv: chain module %s undefined on %v", c.ModuleID, in)
		}
		b.WriteString(projKey(c.Outputs, out, hidden))
		b.WriteByte('|')
		for k, v := range out {
			env[k] = v
		}
	}
	return b.String(), nil
}

// enumerateAssignments lists every full assignment of the given
// attributes over their domains.
func enumerateAssignments(attrs []string, dom Domain) []map[string]exec.Value {
	if len(attrs) == 0 {
		return []map[string]exec.Value{{}}
	}
	total := 1
	for _, a := range attrs {
		total *= dom.Size(a)
	}
	out := make([]map[string]exec.Value, 0, total)
	idx := make([]int, len(attrs))
	for {
		m := make(map[string]exec.Value, len(attrs))
		for i, a := range attrs {
			m[a] = dom[a][idx[i]]
		}
		out = append(out, m)
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < dom.Size(attrs[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return out
}

// GreedyChainSecureView finds a hidden set achieving Γ against the
// chain-aware adversary, greedily hiding the attribute (of the module
// or any chain stage) with the best marginal effective-level gain per
// unit weight, then pruning. It subsumes GreedySecureView (empty
// chain ⇒ per-row standalone semantics with known inputs).
func GreedyChainSecureView(rel *Relation, chain []*Relation, gamma int, w Weights) (*SecureView, error) {
	var attrs []string
	attrs = append(attrs, rel.Outputs...)
	for _, c := range chain {
		attrs = append(attrs, c.Outputs...)
	}
	sort.Strings(attrs)
	attrs = dedupe(attrs)

	h := make(Hidden)
	level, err := EffectiveLevel(rel, chain, h)
	if err != nil {
		return nil, err
	}
	allHidden := NewHidden(attrs...)
	maxLevel, err := EffectiveLevel(rel, chain, allHidden)
	if err != nil {
		return nil, err
	}
	if maxLevel < gamma {
		return nil, &ErrUnachievable{ModuleID: rel.ModuleID, Gamma: gamma, Max: maxLevel}
	}
	for level < gamma {
		bestAttr, bestGain, bestWeight := "", -1.0, 0.0
		for _, a := range attrs {
			if h[a] {
				continue
			}
			h[a] = true
			nl, err := EffectiveLevel(rel, chain, h)
			delete(h, a)
			if err != nil {
				return nil, err
			}
			gain := float64(nl-level) / maxf(w.Of(a), 1e-9)
			if gain > bestGain || (gain == bestGain && (bestAttr == "" || w.Of(a) < bestWeight || (w.Of(a) == bestWeight && a < bestAttr))) {
				bestAttr, bestGain, bestWeight = a, gain, w.Of(a)
			}
		}
		if bestAttr == "" {
			break
		}
		h[bestAttr] = true
		level, err = EffectiveLevel(rel, chain, h)
		if err != nil {
			return nil, err
		}
	}
	if level < gamma {
		return nil, &ErrUnachievable{ModuleID: rel.ModuleID, Gamma: gamma, Max: maxLevel}
	}
	// Reverse deletion, most expensive first.
	hs := h.List()
	sort.Slice(hs, func(i, j int) bool {
		wi, wj := w.Of(hs[i]), w.Of(hs[j])
		if wi != wj {
			return wi > wj
		}
		return hs[i] < hs[j]
	})
	for _, a := range hs {
		delete(h, a)
		nl, err := EffectiveLevel(rel, chain, h)
		if err != nil {
			return nil, err
		}
		if nl < gamma {
			h[a] = true
		}
	}
	finalLevel, err := EffectiveLevel(rel, chain, h)
	if err != nil {
		return nil, err
	}
	return &SecureView{ModuleID: rel.ModuleID, Hidden: h, Cost: w.Cost(h), Level: finalLevel}, nil
}

// ExhaustiveChainSecureView finds a minimum-cost hidden set achieving Γ
// against the chain-aware adversary by subset enumeration over the
// module's and chain's output attributes. Exact but exponential; use
// for ≲16 attributes and as the optimality baseline for
// GreedyChainSecureView.
//
//provlint:ignore unserved reference: chain_test.go holds the greedy solver to this exhaustive one
func ExhaustiveChainSecureView(rel *Relation, chain []*Relation, gamma int, w Weights) (*SecureView, error) {
	var attrs []string
	attrs = append(attrs, rel.Outputs...)
	for _, c := range chain {
		attrs = append(attrs, c.Outputs...)
	}
	sort.Strings(attrs)
	attrs = dedupe(attrs)
	if len(attrs) > 20 {
		return nil, fmt.Errorf("modpriv: exhaustive chain search over %d attributes refused (>20)", len(attrs))
	}
	maxLevel, err := EffectiveLevel(rel, chain, NewHidden(attrs...))
	if err != nil {
		return nil, err
	}
	if maxLevel < gamma {
		return nil, &ErrUnachievable{ModuleID: rel.ModuleID, Gamma: gamma, Max: maxLevel}
	}
	var best Hidden
	bestCost := 0.0
	bestSize := 0
	for mask := 0; mask < 1<<uint(len(attrs)); mask++ {
		h := make(Hidden)
		cost := 0.0
		size := 0
		for i, a := range attrs {
			if mask&(1<<uint(i)) != 0 {
				h[a] = true
				cost += w.Of(a)
				size++
			}
		}
		if best != nil && (cost > bestCost || (cost == bestCost && size >= bestSize)) {
			continue
		}
		lvl, err := EffectiveLevel(rel, chain, h)
		if err != nil {
			return nil, err
		}
		if lvl >= gamma {
			best, bestCost, bestSize = h, cost, size
		}
	}
	if best == nil {
		return nil, &ErrUnachievable{ModuleID: rel.ModuleID, Gamma: gamma, Max: maxLevel}
	}
	lvl, err := EffectiveLevel(rel, chain, best)
	if err != nil {
		return nil, err
	}
	return &SecureView{ModuleID: rel.ModuleID, Hidden: best, Cost: bestCost, Level: lvl}, nil
}

func dedupe(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || sorted[i-1] != s {
			out = append(out, s)
		}
	}
	return out
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
