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
// the spec listing; and, for every module keyword of either world, a search,
// ranked and counted, and a query — must be byte-identical in both worlds,
// status and body. A /query
// body carries no item value, so the per-execution answers, direct and
// zoomed out, are also compared as the engine hands them to an in-process
// caller (cmd/provsearch prints them), provenance sub-executions included.
// All of it is asked again after both worlds post their next run over the
// wire and are saved and loaded back.
// The check knows nothing of caches, plans or encoders; it bites when any of
// them serves a stored value instead of the masked snapshot's. The
// structural arm makes W' differ in one thing only: whether a path joins a
// pair of modules hidden from L, inside the composite they share; the
// hidden-names arm, in the names and keywords of modules L may not see.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"

	"provpriv/internal/datapriv"
	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/repo"
	"provpriv/internal/server"
	"provpriv/internal/tasks"
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
	niSend(t, r, http.MethodPost, "/api/v1/executions", body, http.StatusCreated)
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
// pair of modules; the spec listing; and, for every keyword, a search and a
// query across executions for a module carrying it.
func niAsk(t *testing.T, r *repo.Repository, s *workflow.Spec, execs int, items, keywords []string, user string) []niAnswer {
	t.Helper()
	h := server.New(r).Handler()
	var modules []string
	for _, wid := range s.WorkflowIDs() {
		for _, m := range s.Workflows[wid].Modules {
			modules = append(modules, m.ID)
		}
	}
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
		get("/api/v1/query?" + url.Values{"spec": {s.ID}, "q": {fmt.Sprintf(`MATCH a = %q`, kw)}}.Encode())
	}
	return out
}

// niKeywords is every module keyword of the specs, sorted, once each: what
// niAsk searches for, so that both worlds are asked the same questions.
func niKeywords(specs ...*workflow.Spec) []string {
	var keywords []string
	for _, s := range specs {
		for _, wid := range s.WorkflowIDs() {
			for _, m := range s.Workflows[wid].Modules {
				keywords = append(keywords, m.AllKeywords()...)
			}
		}
	}
	slices.Sort(keywords)
	return slices.Compact(keywords)
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
			if niSame(t, where, niAsk(t, rw, s, execs, ref.ItemIDs(), niKeywords(s), user), niAsk(t, rp, s, execs, ref.ItemIDs(), niKeywords(s), user)) == 0 {
				t.Fatalf("%s: no answer showed a masked value: the comparison never looked where the worlds differ", where)
			}
			// The same mutation in both worlds, each posting its own next
			// run, then a save and a reload: nothing read or written on the
			// way may tell them apart either.
			rw, rp = niPostAndReload(t, rw, runW(execs)), niPostAndReload(t, rp, runP(execs))
			where += ", after a post, a save and a reload"
			if niSame(t, where, niAsk(t, rw, s, execs+1, ref.ItemIDs(), niKeywords(s), user), niAsk(t, rp, s, execs+1, ref.ItemIDs(), niKeywords(s), user)) == 0 {
				t.Fatalf("%s: no answer showed a masked value: the comparison never looked where the worlds differ", where)
			}
		}
	}
}

// TestNonInterferenceBulk is the two-world check across a bulk ingest.
// Both worlds hold one run, the first of its shape, and L reads every
// route, so the shard's caches are warm. Then each world posts its next
// runs as one batch to POST /api/v1/executions:bulk — the batches differ
// only in what L may not see — through a server given a task runtime, and
// waits for the task: from then on L must not tell the worlds apart by any
// route, nor after a post, a save and a reload. The batch lands from a
// task worker, after the reads, as the first runs stored as values over a
// shape the shard already holds.
func TestNonInterferenceBulk(t *testing.T) {
	const execs, batch = 1, 3
	for seed := int64(1); seed <= 3; seed++ {
		s, err := workload.RandomSpec(workload.SpecConfig{
			Seed: seed, ID: fmt.Sprintf("ni-bulk-%d", seed), Depth: 3, Fanout: 2, Chain: 4, SkipProb: 0.3,
		})
		if err != nil {
			t.Fatal(err)
		}
		pol, err := workload.RandomPolicy(s, seed)
		if err != nil {
			t.Fatal(err)
		}
		pol.DataLevels[firstInputAttr(workload.RandomInputs(s, 0))] = privacy.Owner
		ref, err := exec.NewRunner(s, nil).Run("ref", workload.RandomInputs(s, 100))
		if err != nil {
			t.Fatal(err)
		}
		items, keywords := ref.ItemIDs(), niKeywords(s)
		for _, level := range niLevels {
			rw, runW := niWorld(t, s, pol, execs, nil)
			rp, runP := niWorld(t, s, pol, execs, &level)
			user := "u-" + level.String()
			where := fmt.Sprintf("seed %d, %s", seed, user)
			if niSame(t, where, niAsk(t, rw, s, execs, items, keywords, user), niAsk(t, rp, s, execs, items, keywords, user)) == 0 {
				t.Fatalf("%s: no answer showed a masked value: the comparison never looked where the worlds differ", where)
			}
			niBulk(t, rw, runW, execs, batch)
			niBulk(t, rp, runP, execs, batch)
			where += ", after a bulk ingest"
			if niSame(t, where, niAsk(t, rw, s, execs+batch, items, keywords, user), niAsk(t, rp, s, execs+batch, items, keywords, user)) == 0 {
				t.Fatalf("%s: no answer showed a masked value: the comparison never looked where the worlds differ", where)
			}
			rw, rp = niPostAndReload(t, rw, runW(execs+batch)), niPostAndReload(t, rp, runP(execs+batch))
			where += ", a post, a save and a reload"
			if niSame(t, where, niAsk(t, rw, s, execs+batch+1, items, keywords, user), niAsk(t, rp, s, execs+batch+1, items, keywords, user)) == 0 {
				t.Fatalf("%s: no answer showed a masked value: the comparison never looked where the worlds differ", where)
			}
		}
	}
}

// niBulk posts the world's runs first..first+n-1 to r as one batch to POST
// /api/v1/executions:bulk, as the owner, through a server given a
// one-worker task runtime; it drains the runtime and fails unless the task
// succeeded having added every run.
func niBulk(t *testing.T, r *repo.Repository, run func(int) *exec.Execution, first, n int) {
	t.Helper()
	batch := make([]json.RawMessage, n)
	for i := range batch {
		b, err := exec.MarshalExecution(run(first + i))
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = b
	}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(r)
	rt := tasks.New(1, 1)
	srv.Tasks = rt
	req := httptest.NewRequest(http.MethodPost, "/api/v1/executions:bulk", bytes.NewReader(body))
	req.Header.Set("X-Prov-User", "u-"+privacy.Owner.String())
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, req)
	var accepted struct {
		Task string `json:"task"`
	}
	if w.Code != http.StatusAccepted || json.Unmarshal(w.Body.Bytes(), &accepted) != nil {
		t.Fatalf("POST /api/v1/executions:bulk: %d %s", w.Code, w.Body)
	}
	if err := rt.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap, err := rt.Get(accepted.Task)
	if err != nil {
		t.Fatal(err)
	}
	res, err := json.Marshal(snap.Result)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf(`{"added":%d,"failed":0}`, n); snap.State != "succeeded" || string(res) != want {
		t.Fatalf("bulk task %s: %s, result %s, want succeeded, %s", accepted.Task, snap.State, res, want)
	}
}

// niPutPolicy installs pol on r's spec over the wire, as PUT
// /api/v1/policy does for an operator.
func niPutPolicy(t *testing.T, r *repo.Repository, pol *privacy.Policy) {
	t.Helper()
	niPut(t, r, "/api/v1/policy", map[string]any{"spec": pol.SpecID, "policy": pol})
}

// niPut sends body to r's PUT route path as the owner and fails unless
// it answers 200.
func niPut(t *testing.T, r *repo.Repository, path string, body any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	niSend(t, r, http.MethodPut, path, b, http.StatusOK)
}

// niSend sends body to r's route as the owner and fails unless it answers
// want.
func niSend(t *testing.T, r *repo.Repository, method, path string, body []byte, want int) {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("X-Prov-User", "u-"+privacy.Owner.String())
	w := httptest.NewRecorder()
	server.New(r).Handler().ServeHTTP(w, req)
	if w.Code != want {
		t.Fatalf("%s %s: %d %s", method, path, w.Code, w.Body)
	}
}

// TestNonInterferencePolicyTightened is the two-world check across a
// policy update. W' differs from W only in what level L may not see under
// the tight policy P2. Both worlds first serve a looser P1 that lets L see
// those attributes, and L reads every route, so every cache a read fills
// holds answers that tell the worlds apart. Then P2 is put over the wire:
// from that answer on, L must not tell them apart by any route, nor after
// a post, a save and a reload. It bites an install that carries anything
// filled under P1 into P2's generation.
func TestNonInterferencePolicyTightened(t *testing.T) {
	const execs = 2
	for seed := int64(1); seed <= 3; seed++ {
		s, err := workload.RandomSpec(workload.SpecConfig{
			Seed: seed, ID: fmt.Sprintf("ni-tight-%d", seed), Depth: 3, Fanout: 2, Chain: 4, SkipProb: 0.3,
		})
		if err != nil {
			t.Fatal(err)
		}
		tight, err := workload.RandomPolicy(s, seed)
		if err != nil {
			t.Fatal(err)
		}
		tight.DataLevels[firstInputAttr(workload.RandomInputs(s, 0))] = privacy.Owner
		ref, err := exec.NewRunner(s, nil).Run("ref", workload.RandomInputs(s, 100))
		if err != nil {
			t.Fatal(err)
		}
		items, keywords := ref.ItemIDs(), niKeywords(s)
		tightJSON, err := json.Marshal(tight)
		if err != nil {
			t.Fatal(err)
		}
		for _, level := range niLevels {
			loose := privacy.NewPolicy(s.ID)
			if err := json.Unmarshal(tightJSON, loose); err != nil {
				t.Fatal(err)
			}
			for _, a := range tight.HiddenAttrs(level) {
				loose.DataLevels[a] = level
			}
			rw, runW := niWorld(t, s, tight, execs, nil)
			rp, runP := niWorld(t, s, tight, execs, &level)
			for _, r := range []*repo.Repository{rw, rp} {
				if err := r.UpdatePolicy(s.ID, loose); err != nil {
					t.Fatal(err)
				}
			}
			user := "u-" + level.String()
			where := fmt.Sprintf("seed %d, %s", seed, user)
			if slices.Equal(niAsk(t, rw, s, execs, items, keywords, user), niAsk(t, rp, s, execs, items, keywords, user)) {
				t.Fatalf("%s: the worlds answer alike under the loose policy: W' changed nothing %s may see there", where, user)
			}
			niPutPolicy(t, rw, tight)
			niPutPolicy(t, rp, tight)
			where += ", after the policy was tightened"
			if niSame(t, where, niAsk(t, rw, s, execs, items, keywords, user), niAsk(t, rp, s, execs, items, keywords, user)) == 0 {
				t.Fatalf("%s: no answer showed a masked value: the comparison never looked where the worlds differ", where)
			}
			rw, rp = niPostAndReload(t, rw, runW(execs)), niPostAndReload(t, rp, runP(execs))
			where += ", a post, a save and a reload"
			if niSame(t, where, niAsk(t, rw, s, execs+1, items, keywords, user), niAsk(t, rp, s, execs+1, items, keywords, user)) == 0 {
				t.Fatalf("%s: no answer showed a masked value: the comparison never looked where the worlds differ", where)
			}
		}
	}
}

// TestNonInterferenceSpecReAdded is the two-world check across a spec
// removed and added again under its id. W' differs from W only in what
// level L may not see under the tight policy P2. Both worlds first serve a
// looser P1 that lets L see those attributes, each is saved to its own
// directory, and L reads every route, so the shard's caches and the saved
// directory hold what tells the worlds apart. Then, over the wire, the
// spec is deleted, added again under P2, and every run but the last is
// posted again: from that answer on, L must not tell the worlds apart, nor
// after a save into the same directory and a reload, which must hold the
// posted-again runs and no other. It bites anything of the removed
// incarnation carried into the new one: a cache entry, an index posting or
// a saved run.
func TestNonInterferenceSpecReAdded(t *testing.T) {
	const execs = 3
	for seed := int64(1); seed <= 3; seed++ {
		s, err := workload.RandomSpec(workload.SpecConfig{
			Seed: seed, ID: fmt.Sprintf("ni-readd-%d", seed), Depth: 3, Fanout: 2, Chain: 4, SkipProb: 0.3,
		})
		if err != nil {
			t.Fatal(err)
		}
		tight, err := workload.RandomPolicy(s, seed)
		if err != nil {
			t.Fatal(err)
		}
		tight.DataLevels[firstInputAttr(workload.RandomInputs(s, 0))] = privacy.Owner
		ref, err := exec.NewRunner(s, nil).Run("ref", workload.RandomInputs(s, 100))
		if err != nil {
			t.Fatal(err)
		}
		items, keywords := ref.ItemIDs(), niKeywords(s)
		tightJSON, err := json.Marshal(tight)
		if err != nil {
			t.Fatal(err)
		}
		addSpec, err := json.Marshal(map[string]any{"spec": s, "policy": tight})
		if err != nil {
			t.Fatal(err)
		}
		var reposted []string
		for i := 0; i < execs-1; i++ {
			reposted = append(reposted, fmt.Sprintf("E%d", i))
		}
		for _, level := range niLevels {
			loose := privacy.NewPolicy(s.ID)
			if err := json.Unmarshal(tightJSON, loose); err != nil {
				t.Fatal(err)
			}
			for _, a := range tight.HiddenAttrs(level) {
				loose.DataLevels[a] = level
			}
			rw, runW := niWorld(t, s, tight, execs, nil)
			rp, runP := niWorld(t, s, tight, execs, &level)
			dirW, dirP := t.TempDir(), t.TempDir()
			for r, dir := range map[*repo.Repository]string{rw: dirW, rp: dirP} {
				if err := r.UpdatePolicy(s.ID, loose); err != nil {
					t.Fatal(err)
				}
				if err := r.Save(dir); err != nil {
					t.Fatal(err)
				}
			}
			user := "u-" + level.String()
			where := fmt.Sprintf("seed %d, %s", seed, user)
			if slices.Equal(niAsk(t, rw, s, execs, items, keywords, user), niAsk(t, rp, s, execs, items, keywords, user)) {
				t.Fatalf("%s: the worlds answer alike under the loose policy: W' changed nothing %s may see there", where, user)
			}
			readd := func(r *repo.Repository, run func(int) *exec.Execution) {
				niSend(t, r, http.MethodDelete, "/api/v1/specs/"+s.ID, nil, http.StatusOK)
				niSend(t, r, http.MethodPost, "/api/v1/specs", addSpec, http.StatusCreated)
				for i := 0; i < execs-1; i++ {
					body, err := exec.MarshalExecution(run(i))
					if err != nil {
						t.Fatal(err)
					}
					niSend(t, r, http.MethodPost, "/api/v1/executions", body, http.StatusCreated)
				}
			}
			readd(rw, runW)
			readd(rp, runP)
			where += ", after the spec was removed and added again under the tight policy"
			if niSame(t, where, niAsk(t, rw, s, execs-1, items, keywords, user), niAsk(t, rp, s, execs-1, items, keywords, user)) == 0 {
				t.Fatalf("%s: no answer showed a masked value: the comparison never looked where the worlds differ", where)
			}
			reload := func(r *repo.Repository, dir string) *repo.Repository {
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
				if ids := loaded.ExecutionIDs(s.ID); !slices.Equal(ids, reposted) {
					t.Fatalf("%s: reloaded runs %v, posted again %v", where, ids, reposted)
				}
				return loaded
			}
			rw, rp = reload(rw, dirW), reload(rp, dirP)
			where += ", a save into the same directory and a reload"
			if niSame(t, where, niAsk(t, rw, s, execs-1, items, keywords, user), niAsk(t, rp, s, execs-1, items, keywords, user)) == 0 {
				t.Fatalf("%s: no answer showed a masked value: the comparison never looked where the worlds differ", where)
			}
		}
	}
}

// TestNonInterferenceGeneralized is the two-world check with a
// generalization ladder (SetGeneralization) on every attribute protected
// above the reader's level L: W' varies each such value inside one class of
// its ladder at L's gap — what L is entitled to see of it — so the worlds
// differ only in what L may not see, and every answer must be
// byte-identical, before and after a post, a save and a reload. A policy
// without ladders never takes the mask's generalize branch; this pins it.
func TestNonInterferenceGeneralized(t *testing.T) {
	const execs = 3
	for seed := int64(1); seed <= 3; seed++ {
		s, err := workload.RandomSpec(workload.SpecConfig{
			Seed: seed, ID: fmt.Sprintf("ni-gen-%d", seed), Depth: 3, Fanout: 2, Chain: 4, SkipProb: 0.3,
		})
		if err != nil {
			t.Fatal(err)
		}
		pol, err := workload.RandomPolicy(s, seed)
		if err != nil {
			t.Fatal(err)
		}
		pol.DataLevels[firstInputAttr(workload.RandomInputs(s, 0))] = privacy.Owner
		ref, err := exec.NewRunner(s, nil).Run("ref", workload.RandomInputs(s, 100))
		if err != nil {
			t.Fatal(err)
		}
		for _, level := range niLevels {
			rw, runW := niWorld(t, s, pol, execs, nil)
			rp, runP := niWorld(t, s, pol, execs, &level)
			hs := niLadders(pol, level, runW, runP, execs+1)
			for _, r := range []*repo.Repository{rw, rp} {
				if err := r.SetGeneralization(s.ID, hs); err != nil {
					t.Fatal(err)
				}
			}
			user := "u-" + level.String()
			where := fmt.Sprintf("seed %d, %s, with ladders", seed, user)
			for _, stage := range []string{"", ", after a post, a save and a reload"} {
				n := execs
				if stage != "" {
					rw, rp = niPostAndReload(t, rw, runW(execs)), niPostAndReload(t, rp, runP(execs))
					n++
				}
				w := niAsk(t, rw, s, n, ref.ItemIDs(), niKeywords(s), user)
				niSame(t, where+stage, w, niAsk(t, rp, s, n, ref.ItemIDs(), niKeywords(s), user))
				if !slices.ContainsFunc(w, func(a niAnswer) bool { return strings.Contains(a.body, niClass) }) {
					t.Fatalf("%s%s: no answer showed a generalized value: the ladders were never used", where, stage)
				}
			}
		}
	}
}

// TestNonInterferenceLadderCoarsened is the two-world check across a
// generalization update, as TestNonInterferencePolicyTightened is across a
// policy update. Both worlds first serve a fine copy of niLadders' ladders
// whose last step sends every value to a class of its own, so L's
// generalized values tell the worlds apart, and L reads every route,
// filling every cache a read fills. Then niLadders' coarse ladders are
// put over the wire: from that answer on, L must not tell the worlds
// apart by any route, nor after a post, a save and a reload. It bites an
// install that carries a masked snapshot filled under the fine ladders
// into the coarse ones' generation.
func TestNonInterferenceLadderCoarsened(t *testing.T) {
	const execs = 2
	for seed := int64(1); seed <= 3; seed++ {
		s, err := workload.RandomSpec(workload.SpecConfig{
			Seed: seed, ID: fmt.Sprintf("ni-coarse-%d", seed), Depth: 3, Fanout: 2, Chain: 4, SkipProb: 0.3,
		})
		if err != nil {
			t.Fatal(err)
		}
		pol, err := workload.RandomPolicy(s, seed)
		if err != nil {
			t.Fatal(err)
		}
		pol.DataLevels[firstInputAttr(workload.RandomInputs(s, 0))] = privacy.Owner
		ref, err := exec.NewRunner(s, nil).Run("ref", workload.RandomInputs(s, 100))
		if err != nil {
			t.Fatal(err)
		}
		items, keywords := ref.ItemIDs(), niKeywords(s)
		for _, level := range niLevels {
			rw, runW := niWorld(t, s, pol, execs, nil)
			rp, runP := niWorld(t, s, pol, execs, &level)
			coarse := niLadders(pol, level, runW, runP, execs+1)
			fine := make(map[string]*datapriv.Hierarchy, len(coarse))
			for attr, h := range coarse {
				last := len(h.Levels) - 1
				f := &datapriv.Hierarchy{Attr: attr, Levels: slices.Clone(h.Levels)}
				f.Levels[last] = make(map[exec.Value]exec.Value, len(h.Levels[last]))
				for i, v := range slices.Sorted(maps.Keys(h.Levels[last])) {
					f.Levels[last][v] = exec.Value(fmt.Sprintf("%s/fine/%d", h.Levels[last][v], i))
				}
				fine[attr] = f
			}
			for _, r := range []*repo.Repository{rw, rp} {
				if err := r.SetGeneralization(s.ID, fine); err != nil {
					t.Fatal(err)
				}
			}
			user := "u-" + level.String()
			where := fmt.Sprintf("seed %d, %s", seed, user)
			if slices.Equal(niAsk(t, rw, s, execs, items, keywords, user), niAsk(t, rp, s, execs, items, keywords, user)) {
				t.Fatalf("%s: the worlds answer alike under the fine ladders: W' changed nothing %s may see there", where, user)
			}
			for _, r := range []*repo.Repository{rw, rp} {
				niPut(t, r, "/api/v1/generalization", map[string]any{"spec": s.ID, "hierarchies": coarse})
			}
			where += ", after the ladders were coarsened"
			for _, stage := range []string{"", ", a post, a save and a reload"} {
				n := execs
				if stage != "" {
					rw, rp = niPostAndReload(t, rw, runW(execs)), niPostAndReload(t, rp, runP(execs))
					n++
				}
				w := niAsk(t, rw, s, n, items, keywords, user)
				niSame(t, where+stage, w, niAsk(t, rp, s, n, items, keywords, user))
				if !slices.ContainsFunc(w, func(a niAnswer) bool { return strings.Contains(a.body, niClass) }) {
					t.Fatalf("%s%s: no answer showed a generalized value: the coarse ladders were never used", where, stage)
				}
			}
		}
	}
}

// niClass marks the classes of niLadders' ladders in an answer.
const niClass = "gen:"

// niLadders returns a ladder for every attribute pol protects above level,
// over the values its items take in the first n runs of both worlds: for an
// attribute d levels above, an item's two values stay apart for d-1 steps
// and meet in one class at step d, the reader's gap. What the reader sees of
// the item is the same in both worlds; every finer step tells them apart.
func niLadders(pol *privacy.Policy, level privacy.Level, runW, runP func(int) *exec.Execution, n int) map[string]*datapriv.Hierarchy {
	hs := make(map[string]*datapriv.Hierarchy)
	for i := 0; i < n; i++ {
		w, p := runW(i), runP(i)
		for _, id := range w.ItemIDs() {
			attr := w.Items[id].Attr
			gap := int(pol.DataLevels[attr] - level)
			if gap <= 0 {
				continue
			}
			h := hs[attr]
			if h == nil {
				h = &datapriv.Hierarchy{Attr: attr, Levels: make([]map[exec.Value]exec.Value, gap)}
				for k := range h.Levels {
					h.Levels[k] = make(map[exec.Value]exec.Value)
				}
				hs[attr] = h
			}
			class := exec.Value(fmt.Sprintf("%s%s:%d:%s", niClass, attr, i, id))
			for world, v := range []exec.Value{w.Items[id].Value, p.Items[id].Value} {
				for k := 0; k < gap-1; k++ {
					finer := exec.Value(fmt.Sprintf("%s/%d/%d", class, world, k))
					h.Levels[k][v], v = finer, finer
				}
				h.Levels[gap-1][v] = class
			}
		}
	}
	return hs
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
	keywords := niKeywords(s, sp)
	for _, level := range niLevels {
		user := "u-" + level.String()
		niSame(t, user, niAsk(t, rw, s, 1, items, keywords, user), niAsk(t, rp, sp, 1, items, keywords, user))
	}
	user := "u-" + privacy.Owner.String()
	if slices.Equal(niAsk(t, rw, s, 1, items, keywords, user), niAsk(t, rp, sp, 1, items, keywords, user)) {
		t.Fatal("the owner cannot tell the worlds apart: the comparison never looked where they differ")
	}
}

// niRenamedWorld is one world of the hidden-names arm. Spec ni-names runs
// I -> C -> D -> O, where composite C expands to WC (a -> b), granted to
// the access view only from Analyst up, so below it C is withdrawn and
// shown as one module; a and b are module-private at Analyst too, because
// the access view alone only decides how a search hit is drawn: a keyword
// of a module the reader may see matches inside a withdrawn composite and
// is reported zoomed out to it. With renamed, a and b keep their ids,
// attributes and functions but take other names and keywords: every value,
// and so every item crossing C's boundary, is the same in both worlds. D,
// visible to all, shares the keyword "shared" with a in W only, and spec
// ni-names-peer, the same in both worlds, carries every name and keyword
// either world gives a or b: term frequency and document frequency both
// see a hidden keyword if the index counts one.
func niRenamedWorld(t *testing.T, renamed bool) (*repo.Repository, *workflow.Spec, []string) {
	t.Helper()
	aName, aKeys, bName, bKeys := "Align reads", []string{"align", "shared"}, "Bin", []string{"bin"}
	if renamed {
		aName, aKeys, bName, bKeys = "Zeta reads", []string{"zeta", "quux"}, "Other", []string{"other"}
	}
	b := workflow.NewBuilder("ni-names", "Hidden names", "W").
		Workflow("W", "Root").
		Source("I", "in").
		Composite("C", "Cluster", "WC", []string{"in"}, []string{"out"}, "cluster").
		Atomic("D", "Deliver", []string{"out"}, []string{"done"}, "shared", "deliver").
		Sink("O", "done").
		Edge("I", "C", "in").
		Edge("C", "D", "out").
		Edge("D", "O", "done")
	b.Workflow("WC", "Inside").
		Atomic("a", aName, []string{"in"}, []string{"x"}, aKeys...).
		Atomic("b", bName, []string{"x"}, []string{"out"}, bKeys...).
		Edge("a", "b", "x")
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	peer, err := workflow.NewBuilder("ni-names-peer", "Peer", "P").
		Workflow("P", "Root").
		Source("PI", "p").
		Atomic("m", "Align reads zeta other", []string{"p"}, []string{"q"}, "align", "shared", "bin", "zeta", "quux", "other").
		Sink("PO", "q").
		Edge("PI", "m", "p").
		Edge("m", "PO", "q").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	pol := privacy.NewPolicy(s.ID)
	pol.ViewGrants[privacy.Analyst] = []string{"WC"}
	pol.ModuleLevels["a"], pol.ModuleLevels["b"] = privacy.Analyst, privacy.Analyst
	r := repo.New()
	for _, sp := range []*workflow.Spec{s, peer} {
		p := pol
		if sp != s {
			p = privacy.NewPolicy(sp.ID)
		}
		if err := r.AddSpec(sp, p); err != nil {
			t.Fatal(err)
		}
	}
	e, err := exec.NewRunner(s, nil).Run("E0", map[string]exec.Value{"in": "v"})
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

// TestNonInterferenceHiddenNames: a reader who may see neither a
// composite's inside nor its modules must not tell a world from one where
// those modules have other names and keywords, by any route — a search for
// any keyword of either world included, hits, scores and total. A reader
// entitled to them must.
func TestNonInterferenceHiddenNames(t *testing.T) {
	rw, s, items := niRenamedWorld(t, false)
	rp, sp, itemsPrime := niRenamedWorld(t, true)
	if !slices.Equal(items, itemsPrime) {
		t.Fatalf("fixture: the worlds' item ids differ: %v, %v", items, itemsPrime)
	}
	keywords := niKeywords(s, sp)
	for _, level := range []privacy.Level{privacy.Public, privacy.Registered} {
		user := "u-" + level.String()
		niSame(t, user, niAsk(t, rw, s, 1, items, keywords, user), niAsk(t, rp, sp, 1, items, keywords, user))
	}
	user := "u-" + privacy.Analyst.String()
	if slices.Equal(niAsk(t, rw, s, 1, items, keywords, user), niAsk(t, rp, sp, 1, items, keywords, user)) {
		t.Fatal("the analyst cannot tell the worlds apart: the comparison never looked where they differ")
	}
}
