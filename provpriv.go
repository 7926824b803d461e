// Package provpriv is a privacy-enabled provenance-aware workflow
// system: a Go implementation of Davidson et al., "Enabling Privacy in
// Provenance-Aware Workflow Systems" (CIDR 2011).
//
// The package is a facade over the implementation packages:
//
//   - hierarchical workflow specifications with τ-expansions and prefix
//     views (internal/workflow);
//   - executions / provenance graphs with begin–end composite nodes and
//     per-edge data items (internal/exec);
//   - the three privacy mechanisms of the paper — data privacy
//     (internal/datapriv), module privacy with Γ-guarantees
//     (internal/modpriv) and structural privacy by cutting or clustering
//     (internal/structpriv);
//   - privacy-aware keyword search with minimal views (internal/search),
//     structural queries (internal/query), TF-IDF ranking with leakage
//     controls (internal/rank), privacy-classified indexes
//     (internal/index) and the repository tying them together
//     (internal/repo).
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
	"provpriv/internal/datapriv"
	"provpriv/internal/dp"
	"provpriv/internal/exec"
	"provpriv/internal/modpriv"
	"provpriv/internal/privacy"
	"provpriv/internal/query"
	"provpriv/internal/rank"
	"provpriv/internal/repo"
	"provpriv/internal/search"
	"provpriv/internal/structpriv"
	"provpriv/internal/taint"
	"provpriv/internal/workflow"
)

// Workflow model.
type (
	// Spec is a hierarchical workflow specification.
	Spec = workflow.Spec
	// Workflow is a single (sub)workflow graph.
	Workflow = workflow.Workflow
	// Module is a workflow node.
	Module = workflow.Module
	// Hierarchy is the expansion hierarchy of a spec.
	Hierarchy = workflow.Hierarchy
	// Prefix is a prefix of an expansion hierarchy, defining a view.
	Prefix = workflow.Prefix
	// View is an expanded view of a spec.
	View = workflow.View
	// Builder constructs specs fluently.
	Builder = workflow.Builder
)

// Execution / provenance model.
type (
	// Execution is a provenance graph.
	Execution = exec.Execution
	// DataItem is a datum flowing through an execution.
	DataItem = exec.DataItem
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
	// Level is an access level.
	Level = privacy.Level
	// User is a repository principal.
	User = privacy.User
	// Policy binds privacy requirements to a spec.
	Policy = privacy.Policy
	// HiddenPair is a structural-privacy requirement.
	HiddenPair = privacy.HiddenPair
)

// Access levels.
const (
	Public     = privacy.Public
	Registered = privacy.Registered
	Analyst    = privacy.Analyst
	Owner      = privacy.Owner
)

// Repository and query layer.
type (
	// Repository stores specs, executions, policies and users.
	Repository = repo.Repository
	// SearchOptions tunes repository search.
	SearchOptions = repo.SearchOptions
	// SearchHit is a ranked search result.
	SearchHit = repo.SearchHit
	// Answer is a structural-query result.
	Answer = query.Answer
	// SearchResult is a minimal-view keyword answer.
	SearchResult = search.Result
)

// Module privacy.
type (
	// Relation is a module's I/O relation over finite domains.
	Relation = modpriv.Relation
	// Domain maps attributes to finite value domains.
	Domain = modpriv.Domain
	// Hidden is a hidden-attribute set.
	Hidden = modpriv.Hidden
	// Weights assigns utility lost per hidden attribute.
	Weights = modpriv.Weights
	// SecureView is a per-module secure view.
	SecureView = modpriv.SecureView
	// WorkflowAnalysis describes a workflow-wide secure-view problem.
	WorkflowAnalysis = modpriv.WorkflowAnalysis
)

// Structural privacy.
type (
	// StructPair is a connectivity fact to hide.
	StructPair = structpriv.Pair
	// StructResult is a published structural-privacy view.
	StructResult = structpriv.Result
	// StructStrategy selects cut vs cluster.
	StructStrategy = structpriv.Strategy
)

// Structural strategies.
const (
	CutEdges    = structpriv.CutEdges
	CutVertices = structpriv.CutVertices
	ClusterPair = structpriv.Cluster
)

// Data privacy.
type (
	// Masker applies taint-aware data-privacy masking to executions.
	Masker = datapriv.Masker
	// GeneralizationHierarchy coarsens values level by level.
	GeneralizationHierarchy = datapriv.Hierarchy
	// MaskReport accounts for a masking pass.
	MaskReport = datapriv.Report
	// TaintEngine seeds, propagates and applies provenance taint
	// (internal/taint): protection flows along provenance edges so a
	// protected input value embedded in a derived item's trace string
	// is rewritten or redacted for under-privileged viewers.
	TaintEngine = taint.Engine
	// TaintSet is a cached taint analysis of one execution.
	TaintSet = taint.Set
	// TaintLabel marks one protected ancestor of a tainted item.
	TaintLabel = taint.Label
	// TaintGeneralizer coarsens tainted values; *GeneralizationHierarchy
	// implements it. Exported so NewTaintEngine is callable from outside
	// the module (taint.Generalizer itself lives under internal/).
	TaintGeneralizer = taint.Generalizer
	// ProvenanceOptions is the (empty) options argument of
	// Repository.ProvenanceWithCtx.
	ProvenanceOptions = repo.ProvenanceOptions
)

// NewRepository returns an empty repository.
func NewRepository() *Repository { return repo.New() }

// LoadRepository reads a repository directory written by
// Repository.Save or by cmd/provgen.
func LoadRepository(dir string) (*Repository, error) { return repo.Load(dir) }

// NewPolicy returns an empty policy for a spec id.
func NewPolicy(specID string) *Policy { return privacy.NewPolicy(specID) }

// NewBuilder starts a spec definition.
func NewBuilder(id, name, rootID string) *Builder { return workflow.NewBuilder(id, name, rootID) }

// NewRunner returns an execution runner for a spec.
func NewRunner(s *Spec, funcs Registry) *Runner { return exec.NewRunner(s, funcs) }

// NewMasker builds a data-privacy masker.
func NewMasker(p *Policy, hierarchies map[string]*GeneralizationHierarchy) *Masker {
	return datapriv.NewMasker(p, hierarchies)
}

// NewTaintEngine builds a taint engine directly; most callers want
// NewMasker (whose Engine method wires generalization hierarchies in).
func NewTaintEngine(p *Policy, generalizers map[string]TaintGeneralizer) *TaintEngine {
	return taint.NewEngine(p, generalizers)
}

// DiseaseSusceptibility builds the paper's Figure 1 specification.
func DiseaseSusceptibility() *Spec { return workflow.DiseaseSusceptibility() }

// NewHierarchy derives a spec's expansion hierarchy.
func NewHierarchy(s *Spec) (*Hierarchy, error) { return workflow.NewHierarchy(s) }

// NewPrefix builds a view prefix from workflow ids.
func NewPrefix(ids ...string) Prefix { return workflow.NewPrefix(ids...) }

// FullPrefix is the prefix expanding every workflow.
func FullPrefix(h *Hierarchy) Prefix { return workflow.FullPrefix(h) }

// Expand computes the view of a spec under a prefix.
func Expand(s *Spec, p Prefix) (*View, error) { return workflow.Expand(s, p) }

// CollapseExecution computes an execution view under a prefix.
func CollapseExecution(e *Execution, s *Spec, p Prefix) (*Execution, error) {
	return exec.Collapse(e, s, p)
}

// Provenance extracts the provenance of a data item.
func Provenance(e *Execution, itemID string) (*Execution, error) {
	return exec.Provenance(e, itemID)
}

// Downstream lists the items affected by a data item.
func Downstream(e *Execution, itemID string) ([]string, error) {
	return exec.Downstream(e, itemID)
}

// EnumerateRelation builds a module's I/O relation over finite domains.
func EnumerateRelation(moduleID string, fn Func, inputs, outputs []string, dom Domain) (*Relation, error) {
	return modpriv.Enumerate(moduleID, fn, inputs, outputs, dom)
}

// GreedySecureView finds a safe hidden set heuristically.
func GreedySecureView(r *Relation, gamma int, w Weights) (*SecureView, error) {
	return modpriv.GreedySecureView(r, gamma, w)
}

// ExhaustiveSecureView finds a minimum-cost safe hidden set exactly.
func ExhaustiveSecureView(r *Relation, gamma int, w Weights) (*SecureView, error) {
	return modpriv.ExhaustiveSecureView(r, gamma, w)
}

// RedactExecution masks the values of hidden attributes.
func RedactExecution(e *Execution, hidden Hidden) *Execution {
	return modpriv.Redact(e, hidden)
}

// HideStructuralPairs hides connectivity facts using the strategy.
func HideStructuralPairs(v *View, pairs []StructPair, strat StructStrategy) (*StructResult, error) {
	return structpriv.HidePairs(v.Graph(), pairs, strat, nil)
}

// ParseQuery parses a comma-separated keyword query into phrases.
func ParseQuery(q string) [][]string { return search.ParseQuery(q) }

// KeywordSearch runs a minimal-view keyword search with no privacy.
func KeywordSearch(s *Spec, queryText string) (*SearchResult, error) {
	return search.Search(s, search.ParseQuery(queryText))
}

// ParseStructuralQuery parses the MATCH/WHERE/RETURN query language.
func ParseStructuralQuery(s string) (*query.Query, error) { return query.Parse(s) }

// NewCorpus returns an empty ranking corpus.
func NewCorpus() *rank.Corpus { return rank.NewCorpus() }

// MeasureDPReproducibility quantifies the paper's Section 5 argument
// that noisy provenance counts are irreproducible.
func MeasureDPReproducibility(q dp.CountQuery, e *Execution, epsilon float64, trials int, seed int64) (dp.ReproReport, error) {
	return dp.MeasureReproducibility(q, e, epsilon, trials, seed)
}

// ProvenanceSizeQuery is the DP count query "size of provenance(d)".
func ProvenanceSizeQuery(itemID string) dp.CountQuery { return dp.ProvenanceSize(itemID) }

// ComposeRelations composes two module relations r1 ; r2.
func ComposeRelations(r1, r2 *Relation) (*Relation, error) { return modpriv.Compose(r1, r2) }

// EffectiveLevel computes a module's privacy level against an adversary
// who also observes a public downstream chain — the workflow dimension
// of module privacy (a standalone-safe view can leak through a public
// module that re-exposes hidden data).
func EffectiveLevel(rel *Relation, chain []*Relation, hidden Hidden) (int, error) {
	return modpriv.EffectiveLevel(rel, chain, hidden)
}

// GreedyChainSecureView finds a hidden set safe against the chain-aware
// adversary.
func GreedyChainSecureView(rel *Relation, chain []*Relation, gamma int, w Weights) (*SecureView, error) {
	return modpriv.GreedyChainSecureView(rel, chain, gamma, w)
}

// ReconstructionAttack simulates the repeated-execution adversary of
// Section 3 against a module relation under a hidden set.
func ReconstructionAttack(rel *Relation, observed []map[string]Value, hidden Hidden) modpriv.AttackStats {
	return modpriv.ReconstructionAttack(rel, observed, hidden)
}

// OptimizeStructural picks the best structural-privacy mechanism (cut,
// vertex cut, cluster, sound-grown cluster) for the given pairs by
// utility score.
func OptimizeStructural(v *View, pairs []StructPair, requireSound bool) (*StructResult, error) {
	res, _, err := structpriv.Optimize(v.Graph(), pairs, structpriv.OptimizeOptions{RequireSound: requireSound})
	return res, err
}

// NumericHierarchy builds a range-halving generalization ladder for an
// integer attribute.
func NumericHierarchy(attr string, min, max, baseWidth, levels int) (*GeneralizationHierarchy, error) {
	return datapriv.NumericHierarchy(attr, min, max, baseWidth, levels)
}

// CompareExecutions diffs two runs of the same spec (provenance
// debugging: locate where a bad run diverged from a good one).
func CompareExecutions(a, b *Execution) (*exec.Diff, error) { return exec.CompareExecutions(a, b) }
