// Package privacy defines the shared vocabulary of the privacy layer:
// access levels, users, and per-specification policies binding levels to
// the three kinds of privacy concerns the paper enumerates (Section 3) —
// data privacy, module privacy and structural privacy — plus the access
// views of Section 2 ("we can define a user's access privilege as the
// finest grained view that s/he can access").
package privacy

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"provpriv/internal/workflow"
)

// Level is an access level. Higher levels see more. Level 0 (Public) is
// the unauthenticated default.
type Level int

// Common levels. Policies may use any non-negative values.
const (
	Public Level = iota
	Registered
	Analyst
	Owner
)

func (l Level) String() string {
	switch l {
	case Public:
		return "public"
	case Registered:
		return "registered"
	case Analyst:
		return "analyst"
	case Owner:
		return "owner"
	default:
		return fmt.Sprintf("level%d", int(l))
	}
}

// User is a repository principal.
type User struct {
	Name  string `json:"name"`
	Level Level  `json:"level"`
	// Group has no reader: the result cache it partitioned is gone. It
	// stays because saved user records carry it and cmd/provload, which
	// BENCHMARK.json freezes, sets it.
	Group string `json:"group,omitempty"`
}

// HiddenPair is a structural-privacy requirement: users below the
// required level must not learn that module From contributes to the
// data produced by module To (Section 3, "Structural Privacy").
// AccessView enforces it: below Level, the view loses the deepest
// workflow holding both modules, which then answer as its composite.
type HiddenPair struct {
	From  string `json:"from"`
	To    string `json:"to"`
	Level Level  `json:"level"` // minimum level allowed to see the connection
}

// Policy binds a specification's components to access levels.
type Policy struct {
	SpecID string `json:"spec"`

	// DataLevels: minimum level required to see the value of a data
	// attribute (data privacy). Attributes absent from the map are
	// public.
	DataLevels map[string]Level `json:"data_levels,omitempty"`

	// ModuleLevels: module privacy, as visibility — minimum level
	// required to see a module (CanSeeModule). Below it the module's
	// keywords match no search or query term. Modules absent from the map
	// are public. Γ-secure views are not served, so a policy cannot ask
	// for one.
	ModuleLevels map[string]Level `json:"module_levels,omitempty"`

	// Structural: connections that must be hidden from low levels.
	Structural []HiddenPair `json:"structural,omitempty"`

	// ViewGrants: the workflows each level's access view may expand,
	// cumulatively: a level's access view is the union of grants at all
	// levels ≤ it, plus the root. Finer views for higher levels.
	ViewGrants map[Level][]string `json:"view_grants,omitempty"`
}

// NewPolicy returns an empty policy for a spec.
func NewPolicy(specID string) *Policy {
	return &Policy{
		SpecID:       specID,
		DataLevels:   make(map[string]Level),
		ModuleLevels: make(map[string]Level),
		ViewGrants:   make(map[Level][]string),
	}
}

// CanSeeData reports whether a user at level l may see values of
// attribute attr.
func (p *Policy) CanSeeData(l Level, attr string) bool {
	return l >= p.DataLevels[attr]
}

// HiddenAttrs returns the attributes whose values level l may NOT see,
// sorted.
func (p *Policy) HiddenAttrs(l Level) []string {
	var out []string
	for a, req := range p.DataLevels {
		if l < req {
			out = append(out, a)
		}
	}
	sort.Strings(out)
	return out
}

// CanSeeModule reports whether level l may see the identity/behaviour of
// module m (module privacy).
func (p *Policy) CanSeeModule(l Level, moduleID string) bool {
	return l >= p.ModuleLevels[moduleID]
}

// AccessView returns the finest view prefix a user at level l may see:
// the root workflow plus every grant at levels ≤ l, closed under parents,
// less what structural privacy withdraws. A pair hidden from l withdraws,
// with its subtree, the deepest workflow holding both endpoints
// (sharedWorkflow), so at l both resolve to the one composite that
// represents it and no path between them is shown. The policy must have
// passed Validate against h's spec; the result is then a valid prefix of h.
func (p *Policy) AccessView(h *workflow.Hierarchy, l Level) workflow.Prefix {
	prefix := workflow.NewPrefix(h.Root)
	for lvl, wids := range p.ViewGrants {
		if lvl > l {
			continue
		}
		for _, wid := range wids {
			// Close under parents up to the root.
			for cur := wid; cur != "" && !prefix.Contains(cur); cur = h.Parent(cur) {
				if h.Depth(cur) < 0 {
					break // unknown workflow: skip grant
				}
				prefix[cur] = true
			}
		}
	}
	for _, hp := range p.Structural {
		if l >= hp.Level {
			continue
		}
		shared := sharedWorkflow(h, hp.From, hp.To)
		d := h.Depth(shared)
		for wid := range prefix {
			if chain := h.Chain(wid); len(chain) > d && chain[d] == shared {
				delete(prefix, wid)
			}
		}
	}
	return prefix
}

// ViewLevels returns, sorted and distinct, the levels at which AccessView
// can change: a grant's and a hidden pair's.
func (p *Policy) ViewLevels() []Level {
	levels := slices.Collect(maps.Keys(p.ViewGrants))
	for _, hp := range p.Structural {
		levels = append(levels, hp.Level)
	}
	slices.Sort(levels)
	return slices.Compact(levels)
}

// sharedWorkflow returns the deepest workflow whose subtree holds both
// modules: the last common entry of their workflows' root chains.
func sharedWorkflow(h *workflow.Hierarchy, from, to string) string {
	_, wf := h.Module(from)
	_, wt := h.Module(to)
	cf, ct := h.Chain(wf.ID), h.Chain(wt.ID)
	i := 0
	for i+1 < min(len(cf), len(ct)) && cf[i+1] == ct[i+1] {
		i++
	}
	return cf[i]
}

// Validate checks the policy against a spec: referenced modules,
// workflows and attributes must exist, and structural pairs must
// reference modules that share a composite: a pair whose deepest shared
// workflow is the root has no composite to withdraw, so the engine could
// not hide it.
func (p *Policy) Validate(s *workflow.Spec) error {
	if p.SpecID != s.ID {
		return fmt.Errorf("privacy: policy for %q applied to spec %q", p.SpecID, s.ID)
	}
	attrs := make(map[string]bool)
	modules := make(map[string]bool)
	for _, w := range s.Workflows {
		for _, m := range w.Modules {
			modules[m.ID] = true
			for _, a := range m.Inputs {
				attrs[a] = true
			}
			for _, a := range m.Outputs {
				attrs[a] = true
			}
		}
	}
	for a := range p.DataLevels {
		if !attrs[a] {
			return fmt.Errorf("privacy: data level for unknown attribute %q", a)
		}
	}
	for mid := range p.ModuleLevels {
		if !modules[mid] {
			return fmt.Errorf("privacy: module level for unknown module %q", mid)
		}
	}
	for _, hp := range p.Structural {
		if !modules[hp.From] {
			return fmt.Errorf("privacy: structural pair references unknown module %q", hp.From)
		}
		if !modules[hp.To] {
			return fmt.Errorf("privacy: structural pair references unknown module %q", hp.To)
		}
	}
	if len(p.Structural) > 0 {
		h, err := workflow.NewHierarchy(s)
		if err != nil {
			return err
		}
		for _, hp := range p.Structural {
			if sharedWorkflow(h, hp.From, hp.To) == h.Root {
				return fmt.Errorf("privacy: structural pair %s->%s cannot be hidden: the modules share no composite (their deepest shared workflow is the root %s)", hp.From, hp.To, h.Root)
			}
		}
	}
	for lvl, wids := range p.ViewGrants {
		if lvl < 0 {
			return fmt.Errorf("privacy: negative view-grant level %d", lvl)
		}
		for _, wid := range wids {
			if s.Workflows[wid] == nil {
				return fmt.Errorf("privacy: view grant for unknown workflow %q", wid)
			}
		}
	}
	return nil
}
