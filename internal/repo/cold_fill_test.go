package repo

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"provpriv/internal/datapriv"
	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/query"
	"provpriv/internal/taint"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// The fill derives no structure: it gathers the
// execution's values into the slots of the plan prepared once per (shape,
// access view) and masks that vector where it stands, where the public staged functions
// collapse, copy and rebuild per execution. These tests hold the two to the
// same output, the fill to never writing to what the repository stores,
// and the sharing to never carrying a value from one execution to another.

// reproc returns a deep copy of e under a new id whose process ids all read
// T<n> for S<n> — in node ids, frames, edges and producers alike: the same
// run with the same values, and another shape.
func reproc(e *exec.Execution, id string) *exec.Execution {
	ren := func(proc string) string {
		if proc == "" {
			return ""
		}
		return "T" + proc[1:]
	}
	nodeID := make(map[string]string, len(e.Nodes))
	out := &exec.Execution{ID: id, SpecID: e.SpecID, Items: make(map[string]*exec.DataItem, len(e.Items))}
	for _, n := range e.Nodes {
		cp := *n
		cp.Proc = ren(n.Proc)
		cp.ID = cp.Proc + strings.TrimPrefix(n.ID, n.Proc)
		cp.Frames = nil
		for _, f := range n.Frames {
			cp.Frames = append(cp.Frames, exec.Frame{Proc: ren(f.Proc), Module: f.Module, Sub: f.Sub})
		}
		nodeID[n.ID] = cp.ID
		out.Nodes = append(out.Nodes, &cp)
	}
	for _, ed := range e.Edges {
		out.Edges = append(out.Edges, exec.Edge{From: nodeID[ed.From], To: nodeID[ed.To], Items: append([]string(nil), ed.Items...)})
	}
	for id, it := range e.Items {
		cp := *it
		cp.Producer = nodeID[it.Producer]
		out.Items[id] = &cp
	}
	return out
}

// withExtraItem returns a deep copy of e under a new id in which the
// producer of the first edge's first item also emits a second item of the
// same attribute, carried by that edge: one more item on one edge, and
// another shape.
func withExtraItem(t testing.TB, e *exec.Execution, id string) *exec.Execution {
	t.Helper()
	data, err := exec.MarshalExecution(e)
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.UnmarshalExecution(data)
	if err != nil {
		t.Fatal(err)
	}
	out.ID = id
	first := out.Items[out.Edges[0].Items[0]]
	extra := &exec.DataItem{ID: fmt.Sprintf("d%d", len(out.Items)), Attr: first.Attr, Value: first.Value + "+extra", Producer: first.Producer}
	out.Items[extra.ID] = extra
	out.Edges[0].Items = append(out.Edges[0].Items, extra.ID)
	return out
}

// ladderOver returns a two-step generalization ladder over the raw values
// the spec's executions carry in every attribute pol protects: value →
// "<coarse>-<attr>" → "any".
func ladderOver(r *Repository, specID string, pol *privacy.Policy, coarse string) map[string]*datapriv.Hierarchy {
	hs := make(map[string]*datapriv.Hierarchy)
	for _, execID := range r.ExecutionIDs(specID) {
		for _, it := range r.execution(specID, execID).Items {
			if _, protected := pol.DataLevels[it.Attr]; !protected {
				continue
			}
			h := hs[it.Attr]
			if h == nil {
				h = &datapriv.Hierarchy{Attr: it.Attr, Levels: []map[exec.Value]exec.Value{{}, {}}}
				hs[it.Attr] = h
			}
			c := exec.Value(coarse + "-" + it.Attr)
			h.Levels[0][it.Value] = c
			h.Levels[1][c] = "any"
		}
	}
	return hs
}

// protectAnInput raises one workflow input of s to owner-only in pol, so
// that a protected value reaches every trace: taint is guaranteed.
func protectAnInput(s *workflow.Spec, pol *privacy.Policy) *privacy.Policy {
	inputs := workload.RandomInputs(s, 0)
	pol.DataLevels[slices.Sorted(maps.Keys(inputs))[0]] = privacy.Owner
	return pol
}

// coldFillRepo registers nSpecs random specs — random policy with a third
// of the modules reclassified, a two-step generalization ladder over the
// raw values of every protected attribute (even specs; odd ones mask
// without ladders) — each with nExecs runs on different inputs, which share
// one shape, and two executions of shapes of their own: E0 with other
// process ids and E0 with one more item.
func coldFillRepo(t testing.TB, nSpecs, nExecs int) (*Repository, map[string]map[string]*datapriv.Hierarchy) {
	t.Helper()
	r := New()
	ladders := make(map[string]map[string]*datapriv.Hierarchy)
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < nSpecs; i++ {
		s, pol := rankedSpec(t, rng, int64(100+i), fmt.Sprintf("fill-%d", i))
		if err := r.AddSpec(s, protectAnInput(s, pol)); err != nil {
			t.Fatalf("AddSpec: %v", err)
		}
		var first *exec.Execution
		for j := 0; j < nExecs; j++ {
			e, err := exec.NewRunner(s, nil).Run(fmt.Sprintf("E%d", j), workload.RandomInputs(s, int64(1000*i+j)))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if first == nil {
				first = e
			}
			if err := r.AddExecution(e); err != nil {
				t.Fatalf("AddExecution: %v", err)
			}
		}
		for _, e := range []*exec.Execution{reproc(first, "V-reproc"), withExtraItem(t, first, "V-extra")} {
			if err := r.AddExecution(e); err != nil {
				t.Fatalf("AddExecution(%s): %v", e.ID, err)
			}
		}
		if n := r.shard(s.ID).shapes.Len(); n != 3 {
			t.Fatalf("%s holds %d shapes, want 3: the runs, the re-numbered run, the run with an extra item", s.ID, n)
		}
		if i%2 == 0 {
			ladders[s.ID] = ladderOver(r, s.ID, pol, "some")
		}
		if err := r.SetGeneralization(s.ID, ladders[s.ID]); err != nil {
			t.Fatalf("SetGeneralization: %v", err)
		}
	}
	return r, ladders
}

// TestColdFillMatchesStagedPipeline: for every (execution, level) of shards
// holding three shapes each, the snapshot the fill produces — execution
// (its plan's structure with its values), report, zoomed flag, and the
// whole plan, provenance index included — is reflect.DeepEqual to the
// public composition exec.Collapse → Engine.Analyze → Engine.Apply →
// query.PrepareExec run on that execution alone (the plan to stagedPlan of
// that), and queries and provenance over the two answer identically; again after an UpdatePolicy that moves
// the access views, and again after a SetGeneralization. Snapshots of one
// shape at one level share their plan's graph; other shapes never do.
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
	views := make(map[string]map[string]bool) // per spec, every access view a level has had so far
	check := func(stage string) {
		t.Helper()
		tainted := 0
		for _, specID := range r.SpecIDs() {
			sh := r.shard(specID)
			pol := sh.current().pol
			en := datapriv.NewMasker(pol, ladders[specID]).Engine()
			ev := query.NewEvaluator(sh.spec)
			if views[specID] == nil {
				views[specID] = make(map[string]bool)
			}
			for _, lvl := range allLevels {
				views[specID][pol.AccessView(sh.hier, lvl).Key()] = true
			}
			for _, execID := range r.ExecutionIDs(specID) {
				e := r.execution(specID, execID)
				for _, lvl := range allLevels {
					where := fmt.Sprintf("%s: %s/%s at %v", stage, specID, execID, lvl)
					counted := r.taintCounts()
					snap, err := r.enforced(context.Background(), sh, sh.current(), r.stored(specID, execID), lvl)
					if err != nil {
						t.Fatalf("%s: fill: %v", where, err)
					}
					counted = r.taintCounts().minus(counted)

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

					if !reflect.DeepEqual(materialized(snap), masked) {
						got, _ := json.Marshal(materialized(snap))
						want, _ := json.Marshal(masked)
						t.Fatalf("%s: fill built\n%s\nstaged pipeline built\n%s", where, got, want)
					}
					zoomed := len(access) < len(sh.hier.All())
					if got := sh.current().step(lvl).zoomed; counted != countsOf(rep) || got != zoomed {
						t.Fatalf("%s: fill counted %v zoomed %v, staged %+v %v", where, counted, got, rep, zoomed)
					}
					// The provenance index is built lazily and shared with the
					// plan's other snapshots: compare it complete on both sides.
					want := stagedPlan(t, masked, prep, r.stored(specID, execID).Shape())
					for _, s := range []query.Snapshot{snap, want.Snapshot()} {
						for id := range masked.Items {
							p, err := s.Provenance(id)
							if err != nil {
								t.Fatalf("%s: provenance of %s: %v", where, id, err)
							}
							p.AppendJSON(nil, specID, execID)
						}
					}
					if !reflect.DeepEqual(snap.Plan, want) {
						t.Fatalf("%s: prepared index differs from PrepareExec's", where)
					}
					for i, q := range queries {
						got, gerr := ev.EvaluateSnapshot(q, snap, pol, lvl, zoomed)
						want, werr := ev.EvaluateOn(q, prep, pol, lvl, zoomed)
						if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: query %d answers %+v (%v), staged %+v (%v)", where, i, got, gerr, want, werr)
						}
					}
					for id := range masked.Items {
						p, gerr := snap.Provenance(id)
						want, werr := exec.ProvenanceIn(masked, masked.Graph(), id)
						if gerr != nil || werr != nil || !reflect.DeepEqual(p.Execution(), want) {
							t.Fatalf("%s: provenance of %s differs (%v, %v)", where, id, gerr, werr)
						}
					}

					// E0 was filled first: who shares its plan?
					base, err := r.enforced(context.Background(), sh, sh.current(), r.stored(specID, "E0"), lvl)
					if err != nil {
						t.Fatal(err)
					}
					if shares, should := snap.Plan == base.Plan, strings.HasPrefix(execID, "E"); shares != should {
						t.Fatalf("%s: shares E0's plan = %v, want %v", where, shares, should)
					}
				}
			}
			// Plans outlive the policy that first asked for their view.
			if got, want := sh.plans.Len(), 3*len(views[specID]); got != want {
				t.Fatalf("%s: %s holds %d view plans, want %d: 3 shapes under %d distinct access views so far", stage, specID, got, want, len(views[specID]))
			}
		}
		if tainted == 0 {
			t.Fatalf("%s: fixture masked nothing: the comparison never saw a rewritten, generalized or redacted item", stage)
		}
	}
	check("as registered")
	seen := func() (n int) {
		for _, vs := range views {
			n += len(vs)
		}
		return n
	}
	before := seen()
	for i, specID := range r.SpecIDs() {
		s := r.Spec(specID)
		pol, err := workload.RandomPolicy(s, int64(7000+i))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.UpdatePolicy(specID, protectAnInput(s, pol)); err != nil {
			t.Fatalf("UpdatePolicy: %v", err)
		}
	}
	check("after UpdatePolicy")
	if seen() == before {
		t.Fatal("fixture: the new policies gave no level a new access view")
	}
	for i, specID := range r.SpecIDs() {
		ladders[specID] = nil
		if i%2 == 1 { // the ladders change sides
			ladders[specID] = ladderOver(r, specID, r.policy(specID), "kind")
		}
		if err := r.SetGeneralization(specID, ladders[specID]); err != nil {
			t.Fatalf("SetGeneralization: %v", err)
		}
	}
	check("after SetGeneralization")
}

// stagedPlan is the view plan the staged pipeline implies for a view of
// shape: its masked view, copied with the values blanked and named as
// CollapseIn names the view of the shape's representative, prepared by
// query.PreparePlan over the graph PrepareExec derived from it in prep.
func stagedPlan(t testing.TB, masked *exec.Execution, prep *query.PreparedExec, shape *exec.Shape) *query.PreparedExec {
	t.Helper()
	view := &exec.Execution{ID: shape.Rep().ID + "/view", SpecID: masked.SpecID, Nodes: masked.Nodes, Edges: masked.Edges, Items: make(map[string]*exec.DataItem, len(masked.Items))}
	for id, it := range masked.Items {
		cp := *it
		view.Items[id] = &cp
	}
	view.Blank()
	plan, err := query.PreparePlan(view, prep.Graph(), shape)
	if err != nil {
		t.Fatalf("PreparePlan of the staged view: %v", err)
	}
	return plan
}

// TestConcurrentFillsAtTwoLevelsShareOnlyThePlan: one execution filled cold
// at two levels of one access view at once — each fill parked before its
// taint analysis until the other has got there too, so neither can have been
// served anything the other made past the plan — yields the two snapshots
// the staged pipeline yields. Each fill analyses the execution for itself;
// what the two share is the plan and nothing else.
func TestConcurrentFillsAtTwoLevelsShareOnlyThePlan(t *testing.T) {
	r := seededRepo(t) // snps is owner-only; analyst and owner see the same workflows
	sh := r.shard(diseaseID)
	gen, e := sh.current(), r.execution(diseaseID, "E1")
	st := r.stored(diseaseID, "E1")
	levels := [2]privacy.Level{privacy.Analyst, privacy.Owner}
	if gen.step(levels[0]) != gen.step(levels[1]) {
		t.Fatal("fixture: the two levels do not share an access view")
	}
	var ctxs [2]*parkingValues
	var snaps [2]query.Snapshot
	var errs [2]error
	fills, counted := r.fills.Load(), r.taintCounts()
	var wg sync.WaitGroup
	for i, lvl := range levels {
		// The fill's third span is taint.analyze.
		ctxs[i] = &parkingValues{Context: context.Background(), at: 3, reached: make(chan struct{}), release: make(chan struct{})}
		wg.Add(1)
		go func() {
			defer wg.Done()
			snaps[i], errs[i] = r.enforced(ctxs[i], sh, gen, st, lvl)
		}()
		<-ctxs[i].reached // past the plan: the second fill finds the first's
	}
	for _, c := range ctxs {
		close(c.release)
	}
	wg.Wait()
	en := datapriv.NewMasker(gen.pol, nil).Engine()
	var reps [2]taint.Report
	for i, lvl := range levels {
		if errs[i] != nil {
			t.Fatalf("fill at %v: %v", lvl, errs[i])
		}
		view, err := exec.Collapse(e, sh.spec, gen.pol.AccessView(sh.hier, lvl))
		if err != nil {
			t.Fatalf("Collapse at %v: %v", lvl, err)
		}
		var masked *exec.Execution
		masked, reps[i] = en.Apply(view, lvl, en.Analyze(e))
		prep, err := query.PrepareExec(masked)
		if err != nil {
			t.Fatalf("PrepareExec at %v: %v", lvl, err)
		}
		if !reflect.DeepEqual(materialized(snaps[i]), masked) || !reflect.DeepEqual(snaps[i].Plan, stagedPlan(t, masked, prep, st.Shape())) {
			got, _ := json.Marshal(materialized(snaps[i]))
			want, _ := json.Marshal(masked)
			t.Fatalf("level %v: fill built\n%s\nstaged pipeline built\n%s", lvl, got, want)
		}
	}
	if reps[0] == reps[1] {
		t.Fatalf("fixture: both levels were masked alike (%+v)", reps[0])
	}
	if snaps[0].Plan != snaps[1].Plan {
		t.Fatal("two levels of one access view did not share their plan")
	}
	if &snaps[0].Vals[0] == &snaps[1].Vals[0] {
		t.Fatal("both levels' snapshots hold one value vector")
	}
	want := countsOf(reps[0])
	for i, n := range countsOf(reps[1]) {
		want[i] += n
	}
	if n, got := r.fills.Load()-fills, r.taintCounts().minus(counted); n != 2 || got != want {
		t.Fatalf("two fills counted %d fills and taint %v, want 2 and %v", n, got, want)
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
					if _, err := r.enforced(context.Background(), sh, sh.current(), r.stored(specID, execID), lvl); err != nil {
						t.Fatalf("%s: %s/%s at %v: %v", stage, specID, execID, lvl, err)
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
// the fill (at the one topological sort it runs on the view) and leaves no
// view plan.
func TestFillRefusesCyclicView(t *testing.T) {
	r := seededRepo(t)
	sh := r.shard(diseaseID)
	stored := r.execution(diseaseID, "E1")
	cyclic := *stored
	cyclic.ID = "E-cyclic"
	last := stored.Edges[len(stored.Edges)-1]
	cyclic.Edges = append(append([]exec.Edge(nil), stored.Edges...),
		exec.Edge{From: last.To, To: stored.Edges[0].From, Items: last.Items})
	e1 := r.stored(diseaseID, "E1")
	sh.mu.Lock()
	st := sh.shapes.Intern(&cyclic)
	sh.execs[cyclic.ID] = st
	if st.Shape() == e1.Shape() {
		t.Fatal("the execution with an extra edge was interned under E1's shape")
	}
	sh.mu.Unlock()
	for _, lvl := range allLevels {
		_, err := r.enforced(context.Background(), sh, sh.current(), st, lvl)
		if err == nil || !strings.Contains(err.Error(), "cycle") {
			t.Fatalf("level %v: fill of a cyclic execution: err = %v, want one naming the cycle", lvl, err)
		}
	}
	if p := sh.plans.Len(); p != 0 {
		t.Fatalf("%d view plans cached from failed fills", p)
	}
}
