package modpriv

import (
	"provpriv/internal/exec"
)

// This file implements the adversary of Section 3's motivating
// observation: "if information about all intermediate data is
// repeatedly given for multiple executions of a workflow on different
// initial inputs, then partial or complete functionality of modules may
// be revealed" — and, from the owner's side, "they do not want the
// module to be simulated by competitors who capture all input-output
// relationships." ReconstructionAttack replays that adversary against a
// module relation under a hidden-attribute set, measuring how much of
// the module's function the observations pin down. A correct secure
// view (Γ ≥ 2) keeps the recovered fraction at zero no matter how many
// executions leak.

// AttackStats summarizes a reconstruction attempt.
type AttackStats struct {
	// DomainRows is the size of the module's full input domain.
	DomainRows int
	// Observed is the number of distinct domain rows that appeared in
	// at least one execution.
	Observed int
	// Recovered is the number of domain rows whose exact full output
	// the adversary can pin down from the visible observations.
	Recovered int
}

// Coverage is the fraction of the module's function recovered.
func (a AttackStats) Coverage() float64 {
	if a.DomainRows == 0 {
		return 0
	}
	return float64(a.Recovered) / float64(a.DomainRows)
}

// ReconstructionAttack simulates the repeated-execution adversary: each
// element of observedInputs is a full input assignment the workflow ran
// on; the adversary sees only the visible projections of those inputs
// and of the corresponding outputs.
//
// A row is recovered only when the observations logically pin its exact
// full output. Because an observation with a partially hidden input can
// always be attributed to a *different* row of the same visible-input
// group (the adversary has no census of which inputs actually ran),
// recovery requires all of:
//
//   - the row was observed,
//   - its visible inputs identify it uniquely in the input domain
//     (its visible-input group is a singleton), and
//   - no output attribute is hidden (otherwise the hidden part ranges
//     freely over its domain).
//
// With nothing hidden this degenerates to "observed ⇒ recovered" — the
// paper's repeated-execution threat; any safe view (Γ ≥ 2) keeps
// recovery at zero because safety forces every group to be ambiguous.
func ReconstructionAttack(rel *Relation, observedInputs []map[string]exec.Value, hidden Hidden) AttackStats {
	stats := AttackStats{DomainRows: len(rel.Rows)}

	// Visible-input group sizes over the FULL input domain.
	groupSize := make(map[string]int)
	for _, row := range rel.Rows {
		groupSize[projKey(rel.Inputs, row.In, hidden)]++
	}

	observedRow := make(map[string]bool) // full-input key -> observed
	for _, in := range observedInputs {
		if _, ok := rel.Apply(in); !ok {
			continue // out-of-domain input: nothing learned
		}
		observedRow[assignKey(rel.Inputs, in)] = true
	}

	hiddenOutProduct := 1
	for _, a := range rel.Outputs {
		if hidden[a] {
			hiddenOutProduct *= rel.Dom.Size(a)
		}
	}

	for _, row := range rel.Rows {
		if !observedRow[assignKey(rel.Inputs, row.In)] {
			continue
		}
		stats.Observed++
		if hiddenOutProduct == 1 && groupSize[projKey(rel.Inputs, row.In, hidden)] == 1 {
			stats.Recovered++
		}
	}
	return stats
}

// HarvestInputs extracts, from stored executions, the full input
// assignments a given module ran on — the raw material for
// ReconstructionAttack. The module's inputs are matched by attribute
// name against each execution's data items flowing into its node(s).
//
//provlint:ignore unserved ROADMAP item 8 owns the reconstruction adversary: it runs against served answers or goes (attack_test.go)
func HarvestInputs(execs []*exec.Execution, moduleID string, inputs []string) []map[string]exec.Value {
	var out []map[string]exec.Value
	for _, e := range execs {
		for _, n := range e.ExecutionsOf(moduleID) {
			assign := make(map[string]exec.Value, len(inputs))
			found := 0
			for _, ed := range e.Edges {
				if ed.To != n.ID {
					continue
				}
				for _, itID := range ed.Items {
					it := e.Items[itID]
					if it == nil {
						continue
					}
					for _, a := range inputs {
						if it.Attr == a {
							assign[a] = it.Value
							found++
						}
					}
				}
			}
			if found == len(inputs) {
				out = append(out, assign)
			}
		}
	}
	return out
}
