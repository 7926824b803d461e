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
// All of it is asked again after both worlds post their next run over the
// wire and are saved and loaded back.
// The check knows nothing of caches, plans or encoders; it bites when any of
// them serves a stored value instead of the masked snapshot's. The
// structural arm makes W' differ in one thing only: whether a path joins a
// pair of modules hidden from L, inside the composite they share.

import (
	"bytes"
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
// module — and everything downstream is derived from that. run(i) is the
// world's run Ei.
func niWorld(t *testing.T, s *workflow.Spec, pol *privacy.Policy, n int, hiddenFrom *privacy.Level) (r *repo.Repository, run func(i int) *exec.Execution) {
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
	run = func(i int) *exec.Execution {
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
		return e
	}
	r = repo.New()
	if err := r.AddSpec(s, pol); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := r.AddExecution(run(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range append(niLevels, privacy.Owner) {
		r.AddUser(privacy.User{Name: "u-" + l.String(), Level: l, Group: l.String()})
	}
	return r, run
}

// niPostAndReload posts e to r over the wire, saves r and returns it read
// back from the directory: e through the execution reader on the way in,
// the stored runs through the value-record reader on the way back.
func niPostAndReload(t *testing.T, r *repo.Repository, e *exec.Execution) *repo.Repository {
	t.Helper()
	body, err := exec.MarshalExecution(e)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/api/v1/executions", bytes.NewReader(body))
	req.Header.Set("X-Prov-User", "u-"+privacy.Owner.String())
	w := httptest.NewRecorder()
	server.New(r).Handler().ServeHTTP(w, req)
	if w.Code != http.StatusCreated {
		t.Fatalf("POST %s: %d %s", e.ID, w.Code, w.Body)
	}
	dir := t.TempDir()
	if err := r.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := r.CloseStorage(); err != nil {
		t.Fatal(err)
	}
	loaded, err := repo.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { loaded.CloseStorage() })
	if ids := loaded.ExecutionIDs(e.SpecID); !slices.Equal(ids, r.ExecutionIDs(e.SpecID)) || !slices.Contains(ids, e.ID) {
		t.Fatalf("reloaded %v, saved %v with %s", ids, r.ExecutionIDs(e.SpecID), e.ID)
	}
	return loaded
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

// niAnswer is one answer a reader got: what was asked, status and body.
type niAnswer struct {
	what string
	code int
	body string
}

// niAsk asks r, as user, everything the comparison drives: the provenance
// of every item of every execution; per execution, for each module of the
// root workflow, its bindings, nodes, provenance and downstream, direct and
// zoomed out, over the wire and in-process; the same queries across
// executions and paged one answer at a time; reachability between every
// pair of modules; the spec listing; and a search for every module keyword.
func niAsk(t *testing.T, r *repo.Repository, s *workflow.Spec, execs int, items []string, user string) []niAnswer {
	t.Helper()
	h := server.New(r).Handler()
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
	var out []niAnswer
	get := func(path string) {
		code, body := niGet(t, h, user, path)
		out = append(out, niAnswer{path, code, body})
	}
	call := func(what string, answer func() (any, error)) {
		a, err := answer()
		if err != nil {
			out = append(out, niAnswer{what, 0, err.Error()})
			return
		}
		b, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, niAnswer{what, http.StatusOK, string(b)})
	}
	for i := 0; i < execs; i++ {
		execID := fmt.Sprintf("E%d", i)
		for _, item := range items {
			get("/api/v1/provenance?" + url.Values{"spec": {s.ID}, "exec": {execID}, "item": {item}}.Encode())
		}
		for _, q := range queries {
			get("/api/v1/query?" + url.Values{"spec": {s.ID}, "exec": {execID}, "q": {q}}.Encode())
			get("/api/v1/query?" + url.Values{"spec": {s.ID}, "exec": {execID}, "q": {q}, "zoom": {"1"}}.Encode())
			call("Query "+execID+" "+q, func() (any, error) { return r.Query(user, s.ID, execID, q) })
			call("QueryZoomOut "+execID+" "+q, func() (any, error) { return r.QueryZoomOut(user, s.ID, execID, q) })
		}
	}
	for _, q := range queries {
		get("/api/v1/query?" + url.Values{"spec": {s.ID}, "q": {q}}.Encode())
		for k := 0; k <= execs; k++ {
			get("/api/v1/query?" + url.Values{"spec": {s.ID}, "q": {q}, "limit": {"1"}, "offset": {fmt.Sprint(k)}}.Encode())
		}
	}
	for _, from := range modules {
		for _, to := range modules {
			get("/api/v1/reach?" + url.Values{"spec": {s.ID}, "from": {from}, "to": {to}}.Encode())
		}
	}
	get("/api/v1/specs")
	for _, kw := range keywords {
		get("/api/v1/search?" + url.Values{"q": {kw}}.Encode())
	}
	return out
}

// niSame fails the test unless both worlds answered everything alike, and
// returns how many answers show a masked value (the worlds differ there).
func niSame(t *testing.T, where string, w, wPrime []niAnswer) (masked int) {
	t.Helper()
	if len(w) != len(wPrime) {
		t.Fatalf("%s: %d answers in W, %d in W'", where, len(w), len(wPrime))
	}
	for i, a := range w {
		if b := wPrime[i]; a != b {
			t.Fatalf("%s: %s\nW  answers %d %s\nW' answers %d %s", where, a.what, a.code, a.body, b.code, b.body)
		}
		if a.code == http.StatusOK && (strings.Contains(a.body, ":*]") || strings.Contains(a.body, `"redacted":true`)) {
			masked++
		}
	}
	return masked
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
		ref, err := exec.NewRunner(s, nil).Run("ref", workload.RandomInputs(s, 100))
		if err != nil {
			t.Fatal(err)
		}
		for _, level := range niLevels {
			rw, runW := niWorld(t, s, pol, execs, nil)
			rp, runP := niWorld(t, s, pol, execs, &level)
			user := "u-" + level.String()
			where := fmt.Sprintf("seed %d, %s", seed, user)
			if niSame(t, where, niAsk(t, rw, s, execs, ref.ItemIDs(), user), niAsk(t, rp, s, execs, ref.ItemIDs(), user)) == 0 {
				t.Fatalf("%s: no answer showed a masked value: the comparison never looked where the worlds differ", where)
			}
			// The same mutation in both worlds, each posting its own next
			// run, then a save and a reload: nothing read or written on the
			// way may tell them apart either.
			rw, rp = niPostAndReload(t, rw, runW(execs)), niPostAndReload(t, rp, runP(execs))
			where += ", after a post, a save and a reload"
			if niSame(t, where, niAsk(t, rw, s, execs+1, ref.ItemIDs(), user), niAsk(t, rp, s, execs+1, ref.ItemIDs(), user)) == 0 {
				t.Fatalf("%s: no answer showed a masked value: the comparison never looked where the worlds differ", where)
			}
		}
	}
}

// niStructuralWorld is one world of the structural arm: root I -> C -> O,
// where composite C runs a: in -> x, b: x -> y and c: y -> out, or, with
// bReadsIn, b reads in instead of x, so a no longer contributes to c. b
// answers the same y whatever it reads, so every value leaving C is the
// same in both worlds; only the path inside C differs.
func niStructuralWorld(t *testing.T, bReadsIn bool) (*repo.Repository, *workflow.Spec, []string) {
	t.Helper()
	bIn := "x"
	if bReadsIn {
		bIn = "in"
	}
	b := workflow.NewBuilder("ni-structural", "Structural non-interference", "W").
		Workflow("W", "Root").
		Source("I", "in").
		Composite("C", "Cluster", "WC", []string{"in"}, []string{"out"}, "cluster").
		Sink("O", "out").
		Edge("I", "C", "in").
		Edge("C", "O", "out")
	b.Workflow("WC", "Inside").
		Atomic("a", "Align", []string{"in"}, []string{"x"}, "align").
		Atomic("b", "Bin", []string{bIn}, []string{"y"}, "bin").
		Atomic("c", "Call", []string{"y"}, []string{"out"}, "call").
		Edge("b", "c", "y")
	if !bReadsIn {
		b.Edge("a", "b", "x")
	}
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pol := privacy.NewPolicy(s.ID)
	pol.ViewGrants[privacy.Public] = []string{"WC"}
	pol.Structural = []privacy.HiddenPair{{From: "a", To: "c", Level: privacy.Owner}}
	r := repo.New()
	if err := r.AddSpec(s, pol); err != nil {
		t.Fatal(err)
	}
	funcs := exec.Registry{"b": func(map[string]exec.Value) map[string]exec.Value { return map[string]exec.Value{"y": "y0"} }}
	e, err := exec.NewRunner(s, funcs).Run("E0", map[string]exec.Value{"in": "v"})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddExecution(e); err != nil {
		t.Fatal(err)
	}
	for _, l := range append(niLevels, privacy.Owner) {
		r.AddUser(privacy.User{Name: "u-" + l.String(), Level: l, Group: l.String()})
	}
	return r, s, e.ItemIDs()
}

// TestNonInterferenceStructural: a reader below the level of a hidden pair
// (a, c) must not tell a world where a contributes to c from one where it
// does not, by any route; the owner, entitled to the pair, must.
func TestNonInterferenceStructural(t *testing.T) {
	rw, s, items := niStructuralWorld(t, false)
	rp, sp, itemsPrime := niStructuralWorld(t, true)
	if !slices.Equal(items, itemsPrime) {
		t.Fatalf("fixture: the worlds' item ids differ: %v, %v", items, itemsPrime)
	}
	for _, level := range niLevels {
		user := "u-" + level.String()
		niSame(t, user, niAsk(t, rw, s, 1, items, user), niAsk(t, rp, sp, 1, items, user))
	}
	user := "u-" + privacy.Owner.String()
	if slices.Equal(niAsk(t, rw, s, 1, items, user), niAsk(t, rp, sp, 1, items, user)) {
		t.Fatal("the owner cannot tell the worlds apart: the comparison never looked where they differ")
	}
}
