package provpriv

// Two-world non-interference for the routes whose answers are written from
// pre-encoded structure (/provenance) or typed envelopes (/query): a reader
// at level L must not be able to tell world W from a world W' that differs
// from it only in what L may not see. Here that is the raw value of every
// attribute protected above L: W' runs the same spec, policy and executions
// with each such attribute's values changed at their source, and every
// value derived from one derived again. Every answer L can ask for — the
// provenance of every item of every execution (visible or not, so the 403s
// are compared too), and structural queries per execution and across them —
// must be byte-identical in both worlds, status and body. The check knows
// nothing of caches, plans or encoders; it bites when any of them serves a
// stored value instead of the masked snapshot's.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
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
func niWorld(t *testing.T, s *workflow.Spec, pol *privacy.Policy, n int, hiddenFrom *privacy.Level) http.Handler {
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
	return server.New(r).Handler()
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
		w := niWorld(t, s, pol, execs, nil)
		ref, err := exec.NewRunner(s, nil).Run("ref", workload.RandomInputs(s, 100))
		if err != nil {
			t.Fatal(err)
		}
		var queries []string
		for _, m := range s.RootWorkflow().Modules {
			if m.Kind == workflow.Atomic || m.Kind == workflow.Composite {
				for _, ret := range []string{"bindings", "nodes", "provenance(a)", "downstream(a)"} {
					queries = append(queries, fmt.Sprintf(`MATCH a = "id:%s" RETURN %s`, m.ID, ret))
				}
			}
		}
		for _, level := range niLevels {
			wPrime := niWorld(t, s, pol, execs, &level)
			user := "u-" + level.String()
			masked := 0 // answers that show a masked value: the worlds differ there
			same := func(path string) {
				t.Helper()
				cw, bw := niGet(t, w, user, path)
				cp, bp := niGet(t, wPrime, user, path)
				if cw != cp || bw != bp {
					t.Fatalf("seed %d, %s: %s\nW  answers %d %s\nW' answers %d %s", seed, user, path, cw, bw, cp, bp)
				}
				if cw == http.StatusOK && (strings.Contains(bw, ":*]") || strings.Contains(bw, `"redacted":true`)) {
					masked++
				}
			}
			for i := 0; i < execs; i++ {
				execID := fmt.Sprintf("E%d", i)
				for _, item := range ref.ItemIDs() {
					same("/api/v1/provenance?" + url.Values{"spec": {s.ID}, "exec": {execID}, "item": {item}}.Encode())
				}
				for _, q := range queries {
					same("/api/v1/query?" + url.Values{"spec": {s.ID}, "exec": {execID}, "q": {q}}.Encode())
				}
			}
			for _, q := range queries {
				same("/api/v1/query?" + url.Values{"spec": {s.ID}, "q": {q}}.Encode())
			}
			if masked == 0 {
				t.Fatalf("seed %d, %s: no answer showed a masked value: the comparison never looked where the worlds differ", seed, user)
			}
		}
	}
}
