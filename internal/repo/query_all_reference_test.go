package repo

// QueryAllPageCtx binds once per view plan and reads values only for the
// window's provenance returns. queryAllReference is the algorithm it
// replaced, kept here as the executable spec: every execution filled,
// matched on its own snapshot, the non-empty answers windowed, and the
// window's return clauses materialized on the filled snapshots.

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/query"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// queryAllReference evaluates text against every execution of specID as
// userName sees it, one fill and one match per execution.
func queryAllReference(r *Repository, userName, specID, text string, limit, offset int) ([]*query.Answer, int, error) {
	q, err := query.Parse(text)
	if err != nil {
		return nil, 0, err
	}
	u, sh, err := r.reader(userName, specID)
	if err != nil {
		return nil, 0, err
	}
	sh.mu.RLock()
	execs, gen := sh.executions(), sh.gen
	sh.mu.RUnlock()
	access := gen.step(u.Level)
	var out []*query.Answer
	var from []query.Snapshot
	for _, e := range execs {
		snap, err := sh.fill(context.Background(), gen, access.view, access.key, e, u.Level)
		if err != nil {
			return nil, 0, err
		}
		ans, err := sh.eval.MatchOn(q, snap.Snapshot, gen.pol, u.Level, access.zoomed)
		if err != nil {
			return nil, 0, err
		}
		if len(ans.Bindings) > 0 {
			out = append(out, ans)
			from = append(from, snap.Snapshot)
		}
	}
	total := len(out)
	if offset >= total {
		return nil, total, nil
	}
	out, from = out[offset:], from[offset:]
	if limit > 0 && limit < len(out) {
		out, from = out[:limit], from[:limit]
	}
	for i := range out {
		if err := sh.eval.MaterializeReturn(q, out[i], from[i]); err != nil {
			return nil, 0, err
		}
	}
	return out, total, nil
}

// pageBytes is the wire form of a window of answers, as /query lists them.
func pageBytes(answers []*query.Answer, total int) []byte {
	b := fmt.Appendf(nil, "%d:", total)
	for _, a := range answers {
		b = a.AppendJSON(b, 0)
	}
	return b
}

// referenceRepo registers random specs (seeds 1–6) under their random policy
// with an input protected at owner and a quarter of the sub-workflows'
// atomic modules raised, a generalization ladder on even seeds, and five
// runs each plus two of shapes of their own, named to sort between the
// runs: three shapes whose executions interleave in id order. Seed 7 is
// BenchmarkLoadStorage's distinct-shapes corpus: one frame of every run
// perturbed, no two runs of one shape. It returns each spec's queries, one
// per return kind over a root module, a sub-workflow module, and a path
// between two root modules.
func referenceRepo(t *testing.T) (*Repository, map[string][]string) {
	t.Helper()
	r := New()
	texts := make(map[string][]string)
	for seed := int64(1); seed <= 7; seed++ {
		s, err := workload.RandomSpec(workload.SpecConfig{Seed: seed, ID: fmt.Sprintf("ref-%d", seed), Depth: 1 + int(seed%3), Fanout: 2, Chain: 4, SkipProb: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		pol, err := workload.RandomPolicy(s, seed)
		if err != nil {
			t.Fatal(err)
		}
		protectAnInput(s, pol)
		var roots, subs []string
		for i, wid := range s.WorkflowIDs() {
			for j, m := range s.Workflows[wid].Modules {
				switch {
				case m.Kind != workflow.Atomic:
				case wid == s.Root:
					roots = append(roots, m.ID)
				default:
					subs = append(subs, m.ID)
					if (i+j)%4 == 0 {
						pol.ModuleLevels[m.ID] = allLevels[1+(i+j)%3]
					}
				}
			}
		}
		if err := r.AddSpec(s, pol); err != nil {
			t.Fatal(err)
		}
		distinct := seed == 7
		var first *exec.Execution
		for i := 0; i < 5; i++ {
			e, err := exec.NewRunner(s, nil).Run(fmt.Sprintf("E%d", i), workload.RandomInputs(s, seed*100+int64(i)))
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = e
			}
			for _, nd := range e.Nodes {
				if distinct && len(nd.Frames) > 0 {
					nd.Frames[0].Sub += fmt.Sprint("#", i)
					break
				}
			}
			if err := r.AddExecution(e); err != nil {
				t.Fatal(err)
			}
		}
		if !distinct {
			for _, e := range []*exec.Execution{reproc(first, "E1-reproc"), withExtraItem(t, first, "E3-extra")} {
				if err := r.AddExecution(e); err != nil {
					t.Fatal(err)
				}
			}
		}
		if n := r.shard(s.ID).shapes.Len(); n < 3 {
			t.Fatalf("%s holds %d shapes: the grouping would not be exercised", s.ID, n)
		}
		if seed%2 == 0 {
			if err := r.SetGeneralization(s.ID, ladderOver(r, s.ID, pol, "coarse")); err != nil {
				t.Fatal(err)
			}
		}
		for _, ret := range []string{"bindings", "nodes", "provenance(a)", "downstream(a)"} {
			texts[s.ID] = append(texts[s.ID], fmt.Sprintf(`MATCH a = "id:%s" RETURN %s`, roots[0], ret))
			if len(subs) > 0 {
				texts[s.ID] = append(texts[s.ID], fmt.Sprintf(`MATCH a = "id:%s" RETURN %s`, subs[len(subs)/2], ret))
			}
			if len(roots) > 1 {
				texts[s.ID] = append(texts[s.ID], fmt.Sprintf(`MATCH a = "id:%s", b = "id:%s" WHERE a ~> b RETURN %s`, roots[0], roots[len(roots)-1], ret))
			}
		}
	}
	for _, l := range allLevels {
		r.AddUser(privacy.User{Name: l.String(), Level: l, Group: "g"})
	}
	return r, texts
}

// TestQueryAllMatchesPerExecutionReference: on referenceRepo, at every
// level, for every query and the windows below, QueryAllPageCtx's answers
// and total are reflect.DeepEqual to queryAllReference's, and their wire
// bytes equal.
func TestQueryAllMatchesPerExecutionReference(t *testing.T) {
	r, texts := referenceRepo(t)
	windows := [][2]int{{0, 0}, {1, 0}, {2, 1}, {3, 2}, {1, 6}, {4, 100}}
	answered, shared, masked := 0, 0, 0
	for _, specID := range r.SpecIDs() {
		for _, text := range texts[specID] {
			for _, l := range allLevels {
				for _, w := range windows {
					got, gotTotal, err := r.QueryAllPageCtx(context.Background(), l.String(), specID, text, w[0], w[1])
					want, wantTotal, wantErr := queryAllReference(r, l.String(), specID, text, w[0], w[1])
					where := fmt.Sprintf("%s at %s, limit %d offset %d: %s", specID, l, w[0], w[1], text)
					if wantErr != nil || err != nil {
						t.Fatalf("%s: error %v, reference %v", where, err, wantErr)
					}
					if gotTotal != wantTotal || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s:\nserved    %d %+v\nreference %d %+v", where, gotTotal, got, wantTotal, want)
					}
					if g, w := pageBytes(got, gotTotal), pageBytes(want, wantTotal); !bytes.Equal(g, w) {
						t.Fatalf("%s: served bytes\n%s\nreference\n%s", where, g, w)
					}
					answered += len(want)
					if wantTotal > r.shard(specID).shapes.Len() {
						shared++
					}
					for _, a := range want {
						if hasMasked(a) {
							masked++
						}
					}
				}
			}
		}
	}
	if answered == 0 || shared == 0 || masked == 0 {
		t.Fatalf("%d answers, %d pages where executions shared a plan, %d answers showing a masked value: the comparison never looked where the paths could differ", answered, shared, masked)
	}
}
