// Package audit analyses a privacy policy against a workflow
// specification and reports, per access level, what is visible — the
// access view the engine serves, structural privacy's withdrawals
// included — and where protected data could leak through public
// downstream modules. It backs cmd/provaudit and is the programmatic
// pre-publication check a repository owner runs before sharing
// provenance (the paper's "you are better off designing in security and
// privacy ... from the start").
package audit

import (
	"fmt"
	"sort"
	"strings"

	"provpriv/internal/privacy"
	"provpriv/internal/workflow"
)

// LevelReport summarizes one access level's visibility.
type LevelReport struct {
	Level          privacy.Level
	View           []string // workflow ids of the access view
	ModulesVisible int
	HiddenAttrs    []string
}

// LeakWarning flags a protected attribute flowing into a visible module
// with public outputs — a downstream oracle.
type LeakWarning struct {
	Level     privacy.Level
	Attr      string
	Module    string
	PublicOut string
}

func (w LeakWarning) String() string {
	return fmt.Sprintf("level %s: attr %q flows into visible module %s whose output %q is public",
		w.Level, w.Attr, w.Module, w.PublicOut)
}

// Report is a complete audit.
type Report struct {
	SpecID string
	Levels []LevelReport
	Leaks  []LeakWarning
}

// Run audits pol against spec. The policy must validate.
func Run(spec *workflow.Spec, pol *privacy.Policy) (*Report, error) {
	if err := pol.Validate(spec); err != nil {
		return nil, err
	}
	h, err := workflow.NewHierarchy(spec)
	if err != nil {
		return nil, err
	}
	full, err := workflow.Expand(spec, workflow.FullPrefix(h))
	if err != nil {
		return nil, err
	}
	rep := &Report{SpecID: spec.ID}
	for _, lvl := range Levels(pol) {
		view := pol.AccessView(h, lvl)
		v, err := workflow.Expand(spec, view)
		if err != nil {
			return nil, err
		}
		visible := 0
		for _, fm := range v.Modules {
			if pol.CanSeeModule(lvl, fm.Module.ID) {
				visible++
			}
		}
		rep.Levels = append(rep.Levels, LevelReport{
			Level:          lvl,
			View:           view.IDs(),
			ModulesVisible: visible,
			HiddenAttrs:    pol.HiddenAttrs(lvl),
		})
	}

	for _, lvl := range Levels(pol) {
		hidden := make(map[string]bool)
		for _, a := range pol.HiddenAttrs(lvl) {
			hidden[a] = true
		}
		if len(hidden) == 0 {
			continue
		}
		for _, fm := range full.Modules {
			m := fm.Module
			if !pol.CanSeeModule(lvl, m.ID) {
				continue
			}
			for _, in := range m.Inputs {
				if !hidden[in] {
					continue
				}
				for _, out := range m.Outputs {
					if !hidden[out] {
						rep.Leaks = append(rep.Leaks, LeakWarning{
							Level: lvl, Attr: in, Module: m.ID, PublicOut: out,
						})
					}
				}
			}
		}
	}
	return rep, nil
}

// Levels returns the access levels worth auditing: every level the
// policy mentions (a structural pair's included: the access view changes
// there), each "first level denied" below a data requirement, and Public;
// sorted ascending.
func Levels(pol *privacy.Policy) []privacy.Level {
	set := map[privacy.Level]bool{privacy.Public: true}
	for _, l := range pol.DataLevels {
		set[l] = true
		if l > 0 {
			set[l-1] = true
		}
	}
	for _, l := range pol.ModuleLevels {
		set[l] = true
	}
	for _, l := range pol.ViewLevels() {
		set[l] = true
	}
	out := make([]privacy.Level, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Render prints the report for terminals.
func (rep *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "audit of policy for spec %q\n", rep.SpecID)
	b.WriteString("\n== access levels ==\n")
	for _, lr := range rep.Levels {
		fmt.Fprintf(&b, "%-12s view={%s}  modules visible=%d  hidden attrs=%v\n",
			lr.Level, strings.Join(lr.View, " "), lr.ModulesVisible, lr.HiddenAttrs)
	}
	b.WriteString("\n== downstream-leak warnings ==\n")
	if len(rep.Leaks) == 0 {
		b.WriteString("none\n")
	} else {
		for _, w := range rep.Leaks {
			fmt.Fprintf(&b, "%s\n", w)
		}
		fmt.Fprintf(&b, "%d warning(s); protect each at the attribute's level: the output in data_levels, or the module in module_levels\n", len(rep.Leaks))
	}
	return b.String()
}
