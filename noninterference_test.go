package provpriv

// Two-world non-interference for the reader routes: a reader at level L
// must not be able to tell world W from a world W' that differs from it
// only in what L may not see. Here that is the raw value of every attribute
// protected above L: W' runs the same spec, policy and executions with each
// such attribute's values changed at their source, and every value derived
// from one derived again. Every answer L can ask for — the provenance of
// every item of every execution (visible or not, so the 403s are compared
// too); structural queries per execution, zoomed out, across executions and
// paged one answer at a time; reachability between every pair of modules;
// the spec listing; and a search for every module keyword, ranked and
// counted — must be byte-identical in both worlds, status and body. A /query
// body carries no item value, so the per-execution answers, direct and
// zoomed out, are also compared as the engine hands them to an in-process
// caller (cmd/provsearch prints them), provenance sub-executions included.
// The check knows nothing of caches, plans or encoders; it bites when any of
// them serves a stored value instead of the masked snapshot's.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/repo"
	"provpriv/internal/server"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// niLevels are the readers compared: an owner sees everything, so its two
// worlds would not differ at all.
var niLevels = []privacy.Level{privacy.Public, privacy.Registered, privacy.Analyst}

// niWorld builds one world: the spec under pol, n executions of it run on
// seeded inputs, and a reader per level. hiddenFrom, when set, makes the
// world W' of that level: every attribute it may not see gets another
// value wherever it is produced — the inputs, and the outputs of every
// module — and everything downstream is derived from that.
func niWorld(t *testing.T, s *workflow.Spec, pol *privacy.Policy, n int, hiddenFrom *privacy.Level) *repo.Repository {
	t.Helper()
	alter := func(v exec.Value) exec.Value { return "w'" + v }
	funcs := exec.Registry{}
	if hiddenFrom != nil {
		for _, wid := range s.WorkflowIDs() {
			for _, m := range s.Workflows[wid].Modules {
				if m.Kind != workflow.Atomic {
					continue
				}
				base := exec.DefaultFunc(m.ID, m.Outputs)
				funcs[m.ID] = func(in map[string]exec.Value) map[string]exec.Value {
					out := base(in)
					for a, v := range out {
						if !pol.CanSeeData(*hiddenFrom, a) {
							out[a] = alter(v)
						}
					}
					return out
				}
			}
		}
	}
	r := repo.New()
	if err := r.AddSpec(s, pol); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		inputs := workload.RandomInputs(s, int64(100+i))
		if hiddenFrom != nil {
			for a, v := range inputs {
				if !pol.CanSeeData(*hiddenFrom, a) {
					inputs[a] = alter(v)
				}
			}
		}
		e, err := exec.NewRunner(s, funcs).Run(fmt.Sprintf("E%d", i), inputs)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.AddExecution(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range append(niLevels, privacy.Owner) {
		r.AddUser(privacy.User{Name: "u-" + l.String(), Level: l, Group: l.String()})
	}
	return r
}

// niGet serves one GET as user and returns the status and body.
func niGet(t *testing.T, h http.Handler, user, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set("X-Prov-User", user)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	body, err := io.ReadAll(w.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return w.Code, string(body)
}

func TestNonInterferenceProvenanceAndQuery(t *testing.T) {
	const execs = 3
	for seed := int64(1); seed <= 5; seed++ {
		s, err := workload.RandomSpec(workload.SpecConfig{
			Seed: seed, ID: fmt.Sprintf("ni-%d", seed), Depth: 3, Fanout: 2, Chain: 4, SkipProb: 0.3,
		})
		if err != nil {
			t.Fatal(err)
		}
		pol, err := workload.RandomPolicy(s, seed)
		if err != nil {
			t.Fatal(err)
		}
		// Protect an input at owner level, as benchMaskedWorkload does, so
		// every level has a hidden value whose traces flow to the sink.
		pol.DataLevels[firstInputAttr(workload.RandomInputs(s, 0))] = privacy.Owner
		rw := niWorld(t, s, pol, execs, nil)
		w := server.New(rw).Handler()
		ref, err := exec.NewRunner(s, nil).Run("ref", workload.RandomInputs(s, 100))
		if err != nil {
			t.Fatal(err)
		}
		var modules, keywords []string
		for _, wid := range s.WorkflowIDs() {
			for _, m := range s.Workflows[wid].Modules {
				modules = append(modules, m.ID)
				keywords = append(keywords, m.AllKeywords()...)
			}
		}
		slices.Sort(keywords)
		keywords = slices.Compact(keywords)
		var queries []string
		for _, m := range s.RootWorkflow().Modules {
			if m.Kind == workflow.Atomic || m.Kind == workflow.Composite {
				for _, ret := range []string{"bindings", "nodes", "provenance(a)", "downstream(a)"} {
					queries = append(queries, fmt.Sprintf(`MATCH a = "id:%s" RETURN %s`, m.ID, ret))
				}
			}
		}
		for _, level := range niLevels {
			rp := niWorld(t, s, pol, execs, &level)
			wPrime := server.New(rp).Handler()
			user := "u-" + level.String()
			masked := 0 // answers that show a masked value: the worlds differ there
			compare := func(what string, cw int, bw string, cp int, bp string) {
				t.Helper()
				if cw != cp || bw != bp {
					t.Fatalf("seed %d, %s: %s\nW  answers %d %s\nW' answers %d %s", seed, user, what, cw, bw, cp, bp)
				}
				if cw == http.StatusOK && (strings.Contains(bw, ":*]") || strings.Contains(bw, `"redacted":true`)) {
					masked++
				}
			}
			same := func(path string) {
				t.Helper()
				cw, bw := niGet(t, w, user, path)
				cp, bp := niGet(t, wPrime, user, path)
				compare(path, cw, bw, cp, bp)
			}
			sameAnswer := func(what string, answer func(r *repo.Repository) (any, error)) {
				t.Helper()
				encode := func(r *repo.Repository) (int, string) {
					a, err := answer(r)
					if err != nil {
						return 0, err.Error()
					}
					b, err := json.Marshal(a)
					if err != nil {
						t.Fatal(err)
					}
					return http.StatusOK, string(b)
				}
				cw, bw := encode(rw)
				cp, bp := encode(rp)
				compare(what, cw, bw, cp, bp)
			}
			for i := 0; i < execs; i++ {
				execID := fmt.Sprintf("E%d", i)
				for _, item := range ref.ItemIDs() {
					same("/api/v1/provenance?" + url.Values{"spec": {s.ID}, "exec": {execID}, "item": {item}}.Encode())
				}
				for _, q := range queries {
					same("/api/v1/query?" + url.Values{"spec": {s.ID}, "exec": {execID}, "q": {q}}.Encode())
					same("/api/v1/query?" + url.Values{"spec": {s.ID}, "exec": {execID}, "q": {q}, "zoom": {"1"}}.Encode())
					sameAnswer("Query "+execID+" "+q, func(r *repo.Repository) (any, error) { return r.Query(user, s.ID, execID, q) })
					sameAnswer("QueryZoomOut "+execID+" "+q, func(r *repo.Repository) (any, error) { return r.QueryZoomOut(user, s.ID, execID, q) })
				}
			}
			for _, q := range queries {
				same("/api/v1/query?" + url.Values{"spec": {s.ID}, "q": {q}}.Encode())
				for k := 0; k <= execs; k++ {
					same("/api/v1/query?" + url.Values{"spec": {s.ID}, "q": {q}, "limit": {"1"}, "offset": {fmt.Sprint(k)}}.Encode())
				}
			}
			for _, from := range modules {
				for _, to := range modules {
					same("/api/v1/reach?" + url.Values{"spec": {s.ID}, "from": {from}, "to": {to}}.Encode())
				}
			}
			same("/api/v1/specs")
			for _, kw := range keywords {
				same("/api/v1/search?" + url.Values{"q": {kw}}.Encode())
			}
			if masked == 0 {
				t.Fatalf("seed %d, %s: no answer showed a masked value: the comparison never looked where the worlds differ", seed, user)
			}
		}
	}
}
