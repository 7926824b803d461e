// Package provpriv is a privacy-enabled provenance-aware workflow
// system: a Go implementation of Davidson et al., "Enabling Privacy in
// Provenance-Aware Workflow Systems" (CIDR 2011).
//
// The implementation lives in internal/: hierarchical workflow
// specifications and their views (internal/workflow), executions and
// provenance graphs (internal/exec), the privacy policy and access views
// (internal/privacy), data masking (internal/datapriv, internal/taint),
// and the privacy-aware repository that searches, queries and masks
// (internal/repo), served over HTTP by cmd/provserve. Module privacy is
// visibility: a policy's module levels say which modules each access
// level may see (privacy.Policy.CanSeeModule). Structural privacy is part
// of the access view: a hidden pair withdraws the composite its modules
// share (privacy.Policy.AccessView).
//
// This package is the facade the programs in examples/ are written
// against, and no more: every function here is one an example calls, and
// every type and constant one an example or a kept signature names.
//
// Quickstart:
//
//	spec := provpriv.DiseaseSusceptibility()
//	r := provpriv.NewRepository()
//	pol := provpriv.NewPolicy(spec.ID)
//	pol.DataLevels["snps"] = provpriv.Owner
//	_ = r.AddSpec(spec, pol)
//	e, _ := provpriv.NewRunner(spec, nil).Run("E1", inputs)
//	_ = r.AddExecution(e)
//	r.AddUser(provpriv.User{Name: "alice", Level: provpriv.Owner})
//	hits, _ := r.Search("alice", "database, disorder risks", provpriv.SearchOptions{})
package provpriv

import (
	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/repo"
	"provpriv/internal/workflow"
)

// Workflow model.
type (
	// Spec is a hierarchical workflow specification.
	Spec = workflow.Spec
	// Hierarchy is the expansion hierarchy of a spec.
	Hierarchy = workflow.Hierarchy
	// Prefix is a prefix of an expansion hierarchy, defining a view.
	Prefix = workflow.Prefix
	// Builder constructs specs fluently.
	Builder = workflow.Builder
)

// Execution / provenance model.
type (
	// Execution is a provenance graph.
	Execution = exec.Execution
	// Value is a data payload.
	Value = exec.Value
	// Runner executes specifications.
	Runner = exec.Runner
	// Registry maps module ids to implementations.
	Registry = exec.Registry
	// Func is a module implementation.
	Func = exec.Func
)

// Privacy vocabulary.
type (
	// User is a repository principal.
	User = privacy.User
	// Policy binds privacy requirements to a spec.
	Policy = privacy.Policy
)

// Access levels.
const (
	Public     = privacy.Public
	Registered = privacy.Registered
	Analyst    = privacy.Analyst
	Owner      = privacy.Owner
)

// Repository layer.
type (
	// Repository stores specs, executions, policies and users.
	Repository = repo.Repository
	// SearchOptions tunes repository search.
	SearchOptions = repo.SearchOptions
)

// NewRepository returns an empty repository.
func NewRepository() *Repository { return repo.New() }

// NewPolicy returns an empty policy for a spec id.
func NewPolicy(specID string) *Policy { return privacy.NewPolicy(specID) }

// NewBuilder starts a spec definition.
func NewBuilder(id, name, rootID string) *Builder { return workflow.NewBuilder(id, name, rootID) }

// NewRunner returns an execution runner for a spec.
func NewRunner(s *Spec, funcs Registry) *Runner { return exec.NewRunner(s, funcs) }

// DiseaseSusceptibility builds the paper's Figure 1 specification.
func DiseaseSusceptibility() *Spec { return workflow.DiseaseSusceptibility() }

// NewHierarchy derives a spec's expansion hierarchy.
func NewHierarchy(s *Spec) (*Hierarchy, error) { return workflow.NewHierarchy(s) }

// FullPrefix is the prefix expanding every workflow.
func FullPrefix(h *Hierarchy) Prefix { return workflow.FullPrefix(h) }

// CollapseExecution computes an execution view under a prefix.
func CollapseExecution(e *Execution, s *Spec, p Prefix) (*Execution, error) {
	return exec.Collapse(e, s, p)
}

// Downstream lists the items affected by a data item.
func Downstream(e *Execution, itemID string) ([]string, error) {
	return exec.Downstream(e, itemID)
}
