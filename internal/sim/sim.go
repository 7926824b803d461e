// Package sim drives a simulated population of users against a
// repository — the evaluation harness for the paper's system-level
// questions. Each simulated operation is a keyword search, a structural
// query (spec or execution level) or a provenance retrieval, drawn from
// a configurable mix with Zipf-distributed keywords. Every response is
// post-checked against the repository's policies: any answer exceeding
// the issuing user's rights counts as a leak incident, so the simulator
// doubles as a privacy regression harness.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"provpriv/internal/privacy"
	"provpriv/internal/query"
	"provpriv/internal/repo"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// Config parameterizes a simulation run.
type Config struct {
	Seed int64
	// Ops is the total number of operations to issue.
	Ops int
	// Users are the simulated principals (must be registered in the
	// repository).
	Users []privacy.User
	// Mix weights per operation kind; zero values get defaults
	// (search 50%, spec query 15%, exec query 15%, provenance 20%).
	SearchWeight, SpecQueryWeight, ExecQueryWeight, ProvenanceWeight int
}

func (c *Config) normalize() error {
	if c.Ops <= 0 {
		return fmt.Errorf("sim: ops %d must be positive", c.Ops)
	}
	if len(c.Users) == 0 {
		return fmt.Errorf("sim: no users")
	}
	if c.SearchWeight == 0 && c.SpecQueryWeight == 0 && c.ExecQueryWeight == 0 && c.ProvenanceWeight == 0 {
		c.SearchWeight, c.SpecQueryWeight, c.ExecQueryWeight, c.ProvenanceWeight = 50, 15, 15, 20
	}
	return nil
}

// OpKind names a simulated operation type.
type OpKind string

// Operation kinds.
const (
	OpSearch     OpKind = "search"
	OpSpecQuery  OpKind = "spec-query"
	OpExecQuery  OpKind = "exec-query"
	OpProvenance OpKind = "provenance"
)

// KindStats aggregates one operation kind.
type KindStats struct {
	Ops      int
	Errors   int           // rejected operations (no match, hidden item…)
	Answered int           // operations with a non-empty answer
	Elapsed  time.Duration // wall time spent
}

// Result summarizes a simulation.
type Result struct {
	Ops           int
	LeakIncidents int
	ByKind        map[OpKind]*KindStats
}

// Render prints the result for terminals.
func (r *Result) Render() string {
	out := fmt.Sprintf("ops=%d leaks=%d\n", r.Ops, r.LeakIncidents)
	kinds := make([]string, 0, len(r.ByKind))
	for k := range r.ByKind {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		s := r.ByKind[OpKind(k)]
		avg := time.Duration(0)
		if s.Ops > 0 {
			avg = s.Elapsed / time.Duration(s.Ops)
		}
		out += fmt.Sprintf("%-11s ops=%-5d answered=%-5d rejected=%-5d avg=%v\n",
			k, s.Ops, s.Answered, s.Errors, avg)
	}
	return out
}

// Run executes the simulation against the repository.
func Run(r *repo.Repository, cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	specIDs := r.SpecIDs()
	if len(specIDs) == 0 {
		return nil, fmt.Errorf("sim: empty repository")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &Result{ByKind: map[OpKind]*KindStats{
		OpSearch: {}, OpSpecQuery: {}, OpExecQuery: {}, OpProvenance: {},
	}}
	total := cfg.SearchWeight + cfg.SpecQueryWeight + cfg.ExecQueryWeight + cfg.ProvenanceWeight
	vocab := workload.DefaultVocab()

	pickKind := func() OpKind {
		x := rng.Intn(total)
		switch {
		case x < cfg.SearchWeight:
			return OpSearch
		case x < cfg.SearchWeight+cfg.SpecQueryWeight:
			return OpSpecQuery
		case x < cfg.SearchWeight+cfg.SpecQueryWeight+cfg.ExecQueryWeight:
			return OpExecQuery
		default:
			return OpProvenance
		}
	}

	for op := 0; op < cfg.Ops; op++ {
		u := cfg.Users[rng.Intn(len(cfg.Users))]
		kind := pickKind()
		st := res.ByKind[kind]
		st.Ops++
		res.Ops++
		start := time.Now()
		switch kind {
		case OpSearch:
			q := workload.RandomQueries(rng, vocab, 1)[0]
			hits, err := r.Search(u.Name, q, repo.SearchOptions{})
			if err != nil {
				st.Errors++
				break
			}
			if len(hits) > 0 {
				st.Answered++
			}
			res.LeakIncidents += checkSearchLeaks(r, u, hits)
		case OpSpecQuery:
			sid := specIDs[rng.Intn(len(specIDs))]
			q := fmt.Sprintf(`MATCH a = %q, b = %q WHERE a ~> b`,
				vocab[workload.ZipfPick(rng, len(vocab))],
				vocab[workload.ZipfPick(rng, len(vocab))])
			ans, err := r.QuerySpec(u.Name, sid, q)
			if err != nil {
				st.Errors++
				break
			}
			if len(ans.Bindings) > 0 {
				st.Answered++
			}
			res.LeakIncidents += checkModuleLeaks(r, u, sid, bindingModules(ans.Bindings))
		case OpExecQuery:
			sid := specIDs[rng.Intn(len(specIDs))]
			eids := r.ExecutionIDs(sid)
			if len(eids) == 0 {
				st.Errors++
				break
			}
			eid := eids[rng.Intn(len(eids))]
			q := fmt.Sprintf(`MATCH a = %q`, vocab[workload.ZipfPick(rng, len(vocab))])
			ans, err := r.Query(u.Name, sid, eid, q)
			if err != nil {
				st.Errors++
				break
			}
			if len(ans.Bindings) > 0 {
				st.Answered++
			}
		case OpProvenance:
			sid := specIDs[rng.Intn(len(specIDs))]
			eids := r.ExecutionIDs(sid)
			if len(eids) == 0 {
				st.Errors++
				break
			}
			eid := eids[rng.Intn(len(eids))]
			itemID := fmt.Sprintf("d%d", rng.Intn(25))
			prov, err := r.Provenance(u.Name, sid, eid, itemID)
			if err != nil {
				st.Errors++
				break
			}
			st.Answered++
			pol := r.Policy(sid)
			for _, it := range prov.Items {
				if !pol.CanSeeData(u.Level, it.Attr) && !it.Redacted {
					res.LeakIncidents++
				}
			}
		}
		st.Elapsed += time.Since(start)
	}
	return res, nil
}

func bindingModules(bs []query.Binding) []string {
	set := make(map[string]bool)
	for _, b := range bs {
		for _, mid := range b {
			set[mid] = true
		}
	}
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

func checkSearchLeaks(r *repo.Repository, u privacy.User, hits []repo.SearchHit) int {
	leaks := 0
	for _, h := range hits {
		pol := r.Policy(h.SpecID)
		spec := r.Spec(h.SpecID)
		if pol == nil || spec == nil {
			continue
		}
		hier, err := workflow.NewHierarchy(spec)
		if err != nil {
			continue
		}
		access := pol.AccessView(hier, u.Level)
		for wid := range h.Result.Prefix() {
			if !access.Contains(wid) {
				leaks++
			}
		}
		for _, m := range h.Result.Matches {
			if !pol.CanSeeModule(u.Level, m.ModuleID) {
				leaks++
			}
		}
	}
	return leaks
}

func checkModuleLeaks(r *repo.Repository, u privacy.User, specID string, moduleIDs []string) int {
	pol := r.Policy(specID)
	if pol == nil {
		return 0
	}
	leaks := 0
	for _, mid := range moduleIDs {
		if !pol.CanSeeModule(u.Level, mid) {
			leaks++
		}
	}
	return leaks
}
