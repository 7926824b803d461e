// Package privacy defines the shared vocabulary of the privacy layer:
// access levels, users, and per-specification policies binding levels to
// the three kinds of privacy concerns the paper enumerates (Section 3) —
// data privacy, module privacy and structural privacy — plus the access
// views of Section 2 ("we can define a user's access privilege as the
// finest grained view that s/he can access").
package privacy

import (
	"fmt"
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

	// ModuleGamma: module privacy requirements — minimum number of
	// possible outputs an adversary below ModuleLevels[m] must be left
	// with for every input of private module m (Γ in [4]).
	ModuleGamma  map[string]int   `json:"module_gamma,omitempty"`
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
		ModuleGamma:  make(map[string]int),
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

// HiddenPairsFor returns the structural pairs that must stay hidden from
// level l.
func (p *Policy) HiddenPairsFor(l Level) []HiddenPair {
	var out []HiddenPair
	for _, hp := range p.Structural {
		if l < hp.Level {
			out = append(out, hp)
		}
	}
	return out
}

// AccessView returns the finest view prefix a user at level l may see:
// the root workflow plus every grant at levels ≤ l, closed under
// parents. The result is always a valid prefix of h.
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
	return prefix
}

// Validate checks the policy against a spec: referenced modules,
// workflows and attributes must exist, Γ values must be ≥ 2 (Γ = 1 is
// no privacy) and structural pairs must reference modules.
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
	for mid, g := range p.ModuleGamma {
		if !modules[mid] {
			return fmt.Errorf("privacy: module gamma for unknown module %q", mid)
		}
		if g < 2 {
			return fmt.Errorf("privacy: module %s gamma %d < 2 provides no privacy", mid, g)
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
