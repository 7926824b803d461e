package repo

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"provpriv/internal/datapriv"
	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/query"
	"provpriv/internal/workload"
)

// The cold fill (maskedExecFor) does each piece of work once — one view,
// masked where it stands, one graph handed from validation to the
// prepared snapshot — where the public staged functions copy and rebuild
// between stages. These tests hold the two to the same output, and the
// fill to never writing to what the repository stores.

// coldFillRepo registers nSpecs random specs — random policy with a third
// of the modules reclassified, a two-step generalization ladder over the
// raw values of every protected attribute — with nExecs executions each.
func coldFillRepo(t testing.TB, nSpecs, nExecs int) (*Repository, map[string]map[string]*datapriv.Hierarchy) {
	t.Helper()
	r := New()
	ladders := make(map[string]map[string]*datapriv.Hierarchy)
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < nSpecs; i++ {
		s, pol := rankedSpec(t, rng, int64(100+i), fmt.Sprintf("fill-%d", i))
		// Guarantee taint: a protected input reaches every trace.
		for a := range workload.RandomInputs(s, 0) {
			pol.DataLevels[a] = privacy.Owner
			break
		}
		if err := r.AddSpec(s, pol); err != nil {
			t.Fatalf("AddSpec: %v", err)
		}
		hs := make(map[string]*datapriv.Hierarchy)
		for j := 0; j < nExecs; j++ {
			inputs := workload.RandomInputs(s, int64(1000*i+j))
			e, err := exec.NewRunner(s, nil).Run(fmt.Sprintf("E%d", j), inputs)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if err := r.AddExecution(e); err != nil {
				t.Fatalf("AddExecution: %v", err)
			}
			for _, it := range e.Items {
				if _, protected := pol.DataLevels[it.Attr]; !protected || i%2 == 1 {
					continue // odd specs mask without ladders
				}
				h := hs[it.Attr]
				if h == nil {
					h = &datapriv.Hierarchy{Attr: it.Attr, Levels: []map[exec.Value]exec.Value{{}, {}}}
					hs[it.Attr] = h
				}
				coarse := exec.Value("some-" + it.Attr)
				h.Levels[0][it.Value] = coarse
				h.Levels[1][coarse] = "any"
			}
		}
		if err := r.SetGeneralization(s.ID, hs); err != nil {
			t.Fatalf("SetGeneralization: %v", err)
		}
		ladders[s.ID] = hs
	}
	return r, ladders
}

// TestColdFillMatchesStagedPipeline: for every (execution, level), the
// snapshot the fill produces — execution, report, zoomed flag, and the
// whole prepared index — is reflect.DeepEqual to the public composition
// exec.Collapse → Engine.Analyze → Engine.Apply → query.PrepareExec, and
// queries and provenance over the two answer identically.
func TestColdFillMatchesStagedPipeline(t *testing.T) {
	r, ladders := coldFillRepo(t, 4, 3)
	queries := []*query.Query{}
	for _, text := range []string{`MATCH a = "query" RETURN provenance(a)`, `MATCH a = "align", b = "filter" WHERE a ~> b RETURN downstream(a)`, `MATCH a = "cluster" RETURN nodes`} {
		q, err := query.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	tainted := 0
	for _, specID := range r.SpecIDs() {
		sh := r.shard(specID)
		pol := sh.policySnapshot()
		en := datapriv.NewMasker(pol, ladders[specID]).Engine()
		ev := query.NewEvaluator(sh.spec)
		for _, execID := range r.ExecutionIDs(specID) {
			e := r.execution(specID, execID)
			for _, lvl := range allLevels {
				where := fmt.Sprintf("%s/%s at %v", specID, execID, lvl)
				snap, err := r.maskedExecFor(context.Background(), sh, e, lvl)
				if err != nil {
					t.Fatalf("%s: maskedExecFor: %v", where, err)
				}

				access := pol.AccessView(sh.hier, lvl)
				view, err := exec.Collapse(e, sh.spec, access)
				if err != nil {
					t.Fatalf("%s: Collapse: %v", where, err)
				}
				masked, rep := en.Apply(view, lvl, en.Analyze(e))
				prep, err := query.PrepareExec(masked)
				if err != nil {
					t.Fatalf("%s: PrepareExec: %v", where, err)
				}
				tainted += rep.Rewritten + rep.TaintRedacted + rep.Generalized

				if !reflect.DeepEqual(snap.prep.Exec, masked) {
					got, _ := json.Marshal(snap.prep.Exec)
					want, _ := json.Marshal(masked)
					t.Fatalf("%s: fill built\n%s\nstaged pipeline built\n%s", where, got, want)
				}
				if zoomed := len(access) < len(sh.hier.All()); snap.rep != rep || snap.zoomed != zoomed || snap.pol != pol {
					t.Fatalf("%s: fill report %+v zoomed %v, staged %+v %v", where, snap.rep, snap.zoomed, rep, zoomed)
				}
				if !reflect.DeepEqual(snap.prep, prep) {
					t.Fatalf("%s: prepared index differs from PrepareExec's", where)
				}
				for i, q := range queries {
					got, gerr := ev.EvaluateOn(q, snap.prep, pol, lvl, snap.zoomed)
					want, werr := ev.EvaluateOn(q, prep, pol, lvl, snap.zoomed)
					if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: query %d answers %+v (%v), staged %+v (%v)", where, i, got, gerr, want, werr)
					}
				}
				for id := range masked.Items {
					got, gerr := exec.ProvenanceIn(snap.prep.Exec, snap.prep.Graph(), id)
					want, werr := exec.Provenance(masked, id)
					if gerr != nil || werr != nil || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: provenance of %s differs (%v, %v)", where, id, gerr, werr)
					}
				}
			}
		}
	}
	if tainted == 0 {
		t.Fatal("fixture masked nothing: the comparison never saw a rewritten, generalized or redacted item")
	}
}

// TestFillNeverMutatesStoredExecution: the fill masks in place, and the
// only thing it may touch is the view it just built. Deep-clone what the
// repository stores, fill every level, replace the policy, fill every
// level again — the stored executions must still equal their clones.
func TestFillNeverMutatesStoredExecution(t *testing.T) {
	r, _ := coldFillRepo(t, 3, 2)
	clones := make(map[string]*exec.Execution)
	for _, specID := range r.SpecIDs() {
		for _, execID := range r.ExecutionIDs(specID) {
			data, err := exec.MarshalExecution(r.execution(specID, execID))
			if err != nil {
				t.Fatal(err)
			}
			clone, err := exec.UnmarshalExecution(data)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(clone, r.execution(specID, execID)) {
				t.Fatalf("%s/%s: marshal round trip is not a faithful clone", specID, execID)
			}
			clones[specID+"/"+execID] = clone
		}
	}
	fillAll := func(stage string) {
		t.Helper()
		for _, specID := range r.SpecIDs() {
			sh := r.shard(specID)
			for _, execID := range r.ExecutionIDs(specID) {
				for _, lvl := range allLevels {
					misses := func() int64 { _, m := sh.masked.Stats(); return m }
					before := misses()
					if _, err := r.maskedExecFor(context.Background(), sh, r.execution(specID, execID), lvl); err != nil {
						t.Fatalf("%s: %s/%s at %v: %v", stage, specID, execID, lvl, err)
					}
					if misses() == before {
						t.Fatalf("%s: %s/%s at %v was served from the cache, not filled", stage, specID, execID, lvl)
					}
				}
				if !reflect.DeepEqual(r.execution(specID, execID), clones[specID+"/"+execID]) {
					t.Fatalf("%s: filling %s/%s changed the stored execution", stage, specID, execID)
				}
			}
		}
	}
	fillAll("first policy")
	for _, specID := range r.SpecIDs() {
		pol := privacy.NewPolicy(specID)
		for _, m := range r.Spec(specID).RootWorkflow().Modules {
			for _, a := range m.Outputs {
				pol.DataLevels[a] = privacy.Owner // every root-level value is now masked
			}
		}
		if err := r.UpdatePolicy(specID, pol); err != nil {
			t.Fatalf("UpdatePolicy: %v", err)
		}
	}
	fillAll("after UpdatePolicy")
}

// TestFillRefusesCyclicView: AddExecution keeps cyclic executions out,
// but the fill does not lean on that — a cycle in what it collapses fails
// the fill (at the one topological sort it runs on the view) and caches
// nothing.
func TestFillRefusesCyclicView(t *testing.T) {
	r := seededRepo(t)
	sh := r.shard(diseaseID)
	stored := r.execution(diseaseID, "E1")
	cyclic := *stored
	cyclic.ID = "E-cyclic"
	last := stored.Edges[len(stored.Edges)-1]
	cyclic.Edges = append(append([]exec.Edge(nil), stored.Edges...),
		exec.Edge{From: last.To, To: stored.Edges[0].From, Items: last.Items})
	sh.mu.Lock()
	sh.execs[cyclic.ID] = &cyclic
	sh.mu.Unlock()
	for _, lvl := range allLevels {
		_, err := r.maskedExecFor(context.Background(), sh, &cyclic, lvl)
		if err == nil || !strings.Contains(err.Error(), "cycle") {
			t.Fatalf("level %v: fill of a cyclic execution: err = %v, want one naming the cycle", lvl, err)
		}
	}
	if n := sh.masked.Len(); n != 0 {
		t.Fatalf("%d snapshots cached from failed fills", n)
	}
}
