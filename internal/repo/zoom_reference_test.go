package repo

// QueryZoomOut decides the zoom on the structure of each step's view plan
// and answers once, through the fill, on the final view. zoomReference is
// the algorithm it replaced, kept here as the executable spec: every step
// collapsed, masked by the unscoped Engine.Apply(view, level,
// Analyze(full)), prepared and evaluated, and the leak checked on the
// masked view.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"provpriv/internal/datapriv"
	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/query"
	"provpriv/internal/taint"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// zoomReference evaluates q against e at level with the gradual zoom-out,
// re-evaluating the whole answer at every step.
func zoomReference(ev *query.Evaluator, q *query.Query, e *exec.Execution, h *workflow.Hierarchy, pol *privacy.Policy, en *taint.Engine, level privacy.Level) (*query.ZoomOutResult, error) {
	access := pol.AccessView(h, level)
	taints := en.Analyze(e)
	prefix := workflow.FullPrefix(h)
	steps := 0
	for {
		view, _, err := exec.CollapseIn(e, h, prefix)
		if err != nil {
			return nil, err
		}
		masked, _ := en.Apply(view, level, taints)
		pe, err := query.PrepareExec(masked)
		if err != nil {
			return nil, err
		}
		ans, err := ev.EvaluateOn(q, pe, pol, level, steps > 0)
		if err != nil {
			return nil, err
		}
		offender := leakReference(masked, access, pol, level, prefix, h)
		if offender == "" {
			return &query.ZoomOutResult{Answer: ans, Prefix: prefix, Steps: steps}, nil
		}
		delete(prefix, offender)
		for _, wid := range h.All() {
			if prefix.Contains(wid) && wid != h.Root && !prefix.Contains(h.Parent(wid)) {
				delete(prefix, wid)
			}
		}
		steps++
		if steps > len(h.All()) {
			return nil, fmt.Errorf("query: zoom-out did not converge")
		}
	}
}

// leakReference is the leak rule read off the masked view: the deepest
// workflow it exposes that level may not see, or "".
func leakReference(view *exec.Execution, access workflow.Prefix, pol *privacy.Policy, level privacy.Level, prefix workflow.Prefix, h *workflow.Hierarchy) string {
	var worst string
	worstDepth := -1
	for _, n := range view.Nodes {
		if n.Module != "" && !pol.CanSeeModule(level, n.Module) {
			if _, w := h.Module(n.Module); w != nil && prefix.Contains(w.ID) && w.ID != h.Root {
				if d := h.Depth(w.ID); d > worstDepth {
					worst, worstDepth = w.ID, d
				}
			}
		}
		for _, f := range n.Frames {
			if !access.Contains(f.Sub) && prefix.Contains(f.Sub) {
				if d := h.Depth(f.Sub); d > worstDepth {
					worst, worstDepth = f.Sub, d
				}
			}
		}
	}
	return worst
}

// TestQueryZoomOutMatchesPerStepReference: on random specs (seeds 1–10,
// depth 3) under their random policy with more modules protected and an
// input protected at owner, with and without a generalization ladder, at
// every level and for one query per return kind, QueryZoomOut's result and
// error are reflect.DeepEqual to zoomReference's — on the call that builds
// the plans and on a repeat that reads them.
func TestQueryZoomOutMatchesPerStepReference(t *testing.T) {
	var zoomed, masked int
	for seed := int64(1); seed <= 10; seed++ {
		s, err := workload.RandomSpec(workload.SpecConfig{Seed: seed, ID: fmt.Sprintf("zoom-%d", seed), Depth: 3, Fanout: 2, Chain: 4, SkipProb: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		pol, err := workload.RandomPolicy(s, seed)
		if err != nil {
			t.Fatal(err)
		}
		protectAnInput(s, pol)
		var roots []string
		for i, wid := range s.WorkflowIDs() {
			for j, m := range s.Workflows[wid].Modules {
				if m.Kind != workflow.Atomic {
					continue
				}
				if wid == s.Root {
					roots = append(roots, m.ID)
				} else if (i+j)%4 == 0 {
					pol.ModuleLevels[m.ID] = allLevels[1+(i+j)%3]
				}
			}
		}
		var texts []string
		for i, ret := range []string{"bindings", "nodes", "provenance(a)", "downstream(a)"} {
			texts = append(texts, fmt.Sprintf(`MATCH a = "id:%s" RETURN %s`, roots[i%len(roots)], ret))
		}
		e, err := exec.NewRunner(s, nil).Run("E", workload.RandomInputs(s, seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, laddered := range []bool{false, true} {
			for _, level := range allLevels {
				r := New()
				if err := r.AddSpec(s, pol); err != nil {
					t.Fatal(err)
				}
				if err := r.AddExecution(e); err != nil {
					t.Fatal(err)
				}
				var hs map[string]*datapriv.Hierarchy
				if laddered {
					hs = ladderOver(r, s.ID, pol, "coarse")
					if err := r.SetGeneralization(s.ID, hs); err != nil {
						t.Fatal(err)
					}
				}
				r.AddUser(privacy.User{Name: "u", Level: level, Group: "g"})
				sh := r.shard(s.ID)
				en := datapriv.NewMasker(pol, hs).Engine()
				for _, text := range texts {
					q, err := query.Parse(text)
					if err != nil {
						t.Fatal(err)
					}
					want, wantErr := zoomReference(sh.eval, q, e, sh.hier, pol, en, level)
					for _, call := range []string{"first", "repeat"} {
						got, err := r.QueryZoomOut("u", s.ID, "E", text)
						where := fmt.Sprintf("seed %d, ladder %v, %s, %s call of %s", seed, laddered, level, call, text)
						if fmt.Sprint(err) != fmt.Sprint(wantErr) {
							t.Fatalf("%s: error %v, reference %v", where, err, wantErr)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s:\nserved    %+v\nreference %+v", where, got, want)
						}
					}
					if want != nil && want.Steps > 0 {
						zoomed++
					}
					if want != nil && hasMasked(want.Answer) {
						masked++
					}
				}
			}
		}
	}
	if zoomed == 0 || masked == 0 {
		t.Fatalf("%d answers zoomed out, %d showed a masked value: the comparison never looked where the paths could differ", zoomed, masked)
	}
}

// hasMasked reports whether an answer's provenance shows a value the
// masking changed: redacted, rewritten to a mask token, or generalized along
// ladderOver's ladder.
func hasMasked(a *query.Answer) bool {
	for _, p := range a.Provenance {
		for _, it := range p.Items {
			if v := string(it.Value); it.Redacted || strings.Contains(v, ":*]") || strings.Contains(v, "coarse-") {
				return true
			}
		}
	}
	return false
}
