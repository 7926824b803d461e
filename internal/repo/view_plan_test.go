package repo

// A shard prepares one value-free view plan per (shape, access view) and
// instantiates every snapshot from it. These tests pin what that sharing
// must never do — carry a value from one execution to another, or let a
// read raced by an install answer under two policies — and what it is for:
// re-reading after a policy update builds no plan it already has.

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/workload"
)

// TestViewPlansCarryNoValueBetweenExecutions: two runs of one spec whose
// every value embeds a sentinel naming the run. After every level of both
// has been filled — A first, so each plan was collapsed from A — no plan
// item holds a value, and no snapshot of one run contains the other's
// sentinel anywhere.
func TestViewPlansCarryNoValueBetweenExecutions(t *testing.T) {
	r, _ := coldFillRepo(t, 1, 1)
	specID := r.SpecIDs()[0]
	s, sh := r.Spec(specID), r.shard(specID)
	sentinels := map[string]string{"run-a": "⟦alpha⟧", "run-b": "⟦bravo⟧"}
	for id, sentinel := range sentinels {
		inputs := workload.RandomInputs(s, 1)
		for attr := range inputs {
			inputs[attr] = exec.Value(sentinel + attr)
		}
		e, err := exec.NewRunner(s, nil).Run(id, inputs)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if err := r.AddExecution(e); err != nil {
			t.Fatalf("AddExecution: %v", err)
		}
	}
	if a, b := r.stored(specID, "run-a"), r.stored(specID, "run-b"); a.Shape() != b.Shape() {
		t.Fatal("fixture: the two runs do not share a shape")
	}
	carried := 0
	for _, id := range []string{"run-a", "run-b"} {
		for _, lvl := range allLevels {
			snap, err := r.enforced(context.Background(), sh, sh.current(), r.stored(specID, id), lvl)
			if err != nil {
				t.Fatalf("%s at %v: %v", id, lvl, err)
			}
			data, err := json.Marshal(materialized(snap))
			if err != nil {
				t.Fatal(err)
			}
			for other, sentinel := range sentinels {
				if has := strings.Contains(string(data), sentinel); has && other != id {
					t.Fatalf("snapshot of %s at %v contains %s, a value of %s", id, lvl, sentinel, other)
				} else if has {
					carried++
				}
			}
		}
	}
	if carried == 0 {
		t.Fatal("fixture: no snapshot shows its own sentinel, so the check above saw nothing")
	}
	pol, shape := sh.current().pol, r.stored(specID, "run-a").Shape()
	for _, lvl := range allLevels {
		view := pol.AccessView(sh.hier, lvl).Key()
		plan, ok := sh.plans.Get(planKey{shape: shape, view: view})
		if !ok {
			t.Fatalf("no plan cached for the runs' shape under view %s", view)
		}
		for id, it := range plan.Exec.Items {
			if it.Value != "" || it.Redacted {
				t.Fatalf("plan for view %s keeps a value in item %s: %q", view, id, it.Value)
			}
		}
		if data, _ := json.Marshal(plan.Exec); strings.Contains(string(data), "⟦") {
			t.Fatalf("plan for view %s holds a sentinel: %s", view, data)
		}
	}
}

// parkingValues is a live context whose at-th Value call closes reached and
// blocks until release is closed; every other call passes. An untraced fill
// asks its context for a trace exactly once per span it would start, so the
// calls number the fill's stages. at 0 only counts.
type parkingValues struct {
	context.Context
	at               int32
	calls            atomic.Int32
	reached, release chan struct{}
}

func (c *parkingValues) Value(any) any {
	if c.calls.Add(1) == c.at {
		close(c.reached)
		<-c.release
	}
	return nil
}

// TestFillRacedByInstallLeavesNoResidue: a read whose fill loses the race
// with a policy install must answer under the policy that was installed
// when it began, and leave nothing the next read sees: that one answers
// under the installed policy. The race is enumerated, not hoped for: the
// fill is parked at each of its stages in turn (before the values, before
// the taint analysis, before the mask, ...), the policy is replaced, the
// fill released.
func TestFillRacedByInstallLeavesNoResidue(t *testing.T) {
	read := func(r *Repository, ctx context.Context) (string, error) {
		progID := itemByAttr(t, r, "prognosis")
		prov, err := r.ProvenanceWithCtx(ctx, "bob", diseaseID, "E1", progID, ProvenanceOptions{})
		if err != nil {
			return "", err
		}
		return string(prov.Execution().Items[progID].Value), nil
	}
	count := &parkingValues{Context: context.Background()}
	if _, err := read(seededRepo(t), count); err != nil {
		t.Fatal(err)
	}
	stages := count.calls.Load()
	if stages < 4 {
		t.Fatalf("a read asks its context for a trace %d times; the fill alone has four stages", stages)
	}
	for at := int32(1); at <= stages; at++ {
		t.Run(fmt.Sprintf("stage=%d", at), func(t *testing.T) {
			r := seededRepo(t) // snps is owner-only: bob's prognosis must not show rs1
			sh := r.shard(diseaseID)
			old := sh.current()
			ctx := &parkingValues{Context: context.Background(), at: at, reached: make(chan struct{}), release: make(chan struct{})}
			type result struct {
				value string
				err   error
			}
			done := make(chan result, 1)
			go func() {
				v, err := read(r, ctx)
				done <- result{v, err}
			}()
			<-ctx.reached
			if err := r.UpdatePolicy(diseaseID, privacy.NewPolicy(diseaseID)); err != nil { // everything public
				t.Fatalf("UpdatePolicy: %v", err)
			}
			close(ctx.release)
			res := <-done
			if res.err != nil {
				t.Fatalf("read: %v", res.err)
			}
			if strings.Contains(res.value, "rs1") {
				t.Fatalf("a read begun under the protecting policy was served %q", res.value)
			}
			if sh.current() == old {
				t.Fatal("UpdatePolicy installed no new generation")
			}
			if v, err := read(r, context.Background()); err != nil || !strings.Contains(v, "rs1") {
				t.Fatalf("the next read is not under the installed policy: %q, %v", v, err)
			}
		})
	}
}

// TestRewarmBuildsOnePlanPerShapeAndView: re-reading every snapshot after a
// policy update builds at most one plan per (shape, distinct access view)
// however many executions and levels are read, and none at all for a view some
// level already had: a policy that changes what is masked but not who sees
// which workflow costs value copies only.
func TestRewarmBuildsOnePlanPerShapeAndView(t *testing.T) {
	r, _ := coldFillRepo(t, 1, 6)
	specID := r.SpecIDs()[0]
	s, sh := r.Spec(specID), r.shard(specID)
	const shapes = 3
	nExecs := len(r.ExecutionIDs(specID))
	built := func() int64 { return int64(sh.plans.Len()) } // plans are never dropped below the cap
	filled := r.fills.Load
	distinctViews := func(pol *privacy.Policy) map[string]bool {
		views := make(map[string]bool)
		for _, lvl := range allLevels {
			views[pol.AccessView(sh.hier, lvl).Key()] = true
		}
		return views
	}
	rewarm := func(stage string, pol *privacy.Policy, wantPlans int) {
		t.Helper()
		if err := r.UpdatePolicy(specID, pol); err != nil {
			t.Fatalf("%s: UpdatePolicy: %v", stage, err)
		}
		plans, fills := built(), filled()
		n := fillEvery(t, r, specID, allLevels)
		if n != nExecs*len(allLevels) {
			t.Fatalf("%s: %d snapshots read, want %d", stage, n, nExecs*len(allLevels))
		}
		if got := filled() - fills; got != int64(n) {
			t.Fatalf("%s: %d snapshots filled, want every one of %d", stage, got, n)
		}
		if got := built() - plans; got != int64(wantPlans) {
			t.Fatalf("%s: the rewarm built %d view plans, want %d", stage, got, wantPlans)
		}
	}

	// Nothing has been read yet, so there is no plan. Two distinct views
	// over four levels: public's and analyst's.
	narrow := protectAnInput(s, privacy.NewPolicy(specID))
	narrow.ViewGrants[privacy.Analyst] = sh.hier.All()
	seen := distinctViews(narrow)
	if len(seen) != 2 {
		t.Fatalf("fixture: %d distinct views, want 2", len(seen))
	}
	rewarm("new views", narrow, shapes*len(seen))

	// Same grants, different data levels: every plan is already there.
	remasked := privacy.NewPolicy(specID)
	remasked.ViewGrants[privacy.Analyst] = sh.hier.All()
	for _, m := range s.RootWorkflow().Modules {
		for _, a := range m.Outputs {
			remasked.DataLevels[a] = privacy.Owner
		}
	}
	rewarm("same views, other masks", remasked, 0)

	// And back: the first policy's plans were never purged.
	rewarm("first views again", narrow, 0)
	if got := sh.plans.Len(); got != shapes*len(seen) {
		t.Fatalf("%d view plans held, want %d shapes x %d views ever asked for", got, shapes, len(seen))
	}
}
