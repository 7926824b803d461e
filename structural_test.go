package provpriv

// Structural privacy as a closure property: a pair (u, v) hidden from a
// level must not be learnable at that level by any route or any
// combination of answers — not by asking /reach about (u, v), not by
// chaining /reach(u, w) and /reach(w, v), and not by joining the edges of
// /provenance and /query (direct, zoomed out, across executions) answers
// into a path. At the pair's own level the connection is
// answerable, so the check bites.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/graph"
	"provpriv/internal/privacy"
	"provpriv/internal/repo"
	"provpriv/internal/server"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// hiddenPair is a pair the test hides, with the modules on its paths in the
// full expansion.
type hiddenPair struct {
	privacy.HiddenPair
	between []string
}

// hidePairs adds to pol up to two pairs of atomic modules the full
// expansion connects, each sharing a composite, hidden from a level above
// the one that first shows both endpoints (so the pair is visible, and must
// be hidden, somewhere below its level). Pairs with a module between their
// endpoints come first; the two pairs' shared workflows are disjoint
// subtrees, so hiding one never withdraws the other's endpoints.
func hidePairs(t *testing.T, rng *rand.Rand, s *workflow.Spec, pol *privacy.Policy) []hiddenPair {
	t.Helper()
	h, err := workflow.NewHierarchy(s)
	if err != nil {
		t.Fatal(err)
	}
	v, err := workflow.ExpandIn(s, h, workflow.FullPrefix(h))
	if err != nil {
		t.Fatal(err)
	}
	g := v.Graph()
	home := func(m string) string { _, w := h.Module(m); return w.ID }
	chain := func(m string) []string { return h.Chain(home(m)) }
	// shared is the deepest workflow holding both modules.
	shared := func(a, b string) []string {
		ca, cb := chain(a), chain(b)
		i := 0
		for i+1 < min(len(ca), len(cb)) && ca[i+1] == cb[i+1] {
			i++
		}
		return ca[:i+1]
	}
	// shown is the lowest level whose grants show both modules' workflows.
	shown := func(a, b string) privacy.Level {
		grants := *pol
		grants.Structural = nil
		for l := privacy.Public; l < privacy.Owner; l++ {
			view := grants.AccessView(h, l)
			if view.Contains(home(a)) && view.Contains(home(b)) {
				return l
			}
		}
		return privacy.Owner
	}
	var cands []hiddenPair
	names := make([]string, g.N())
	for i := range names {
		names[i] = g.Name(graph.NodeID(i))
	}
	for _, from := range names {
		for _, to := range names {
			f, tt := g.Lookup(from), g.Lookup(to)
			if from == to || !g.Reachable(f, tt) || len(shared(from, to)) < 2 || shown(from, to) == privacy.Owner {
				continue
			}
			hp := hiddenPair{HiddenPair: privacy.HiddenPair{From: from, To: to}}
			for _, w := range names {
				if w != from && w != to && g.Reachable(f, g.Lookup(w)) && g.Reachable(g.Lookup(w), tt) {
					hp.between = append(hp.between, w)
				}
			}
			cands = append(cands, hp)
		}
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	slices.SortStableFunc(cands, func(a, b hiddenPair) int { return min(len(b.between), 1) - min(len(a.between), 1) })
	var out []hiddenPair
	for _, c := range cands {
		if len(out) == 2 {
			break
		}
		sc := shared(c.From, c.To)
		disjoint := true
		for _, o := range out {
			so := shared(o.From, o.To)
			n := min(len(sc), len(so))
			disjoint = disjoint && !slices.Equal(sc[:n], so[:n])
		}
		if !disjoint {
			continue
		}
		lo := shown(c.From, c.To)
		c.Level = lo + 1 + privacy.Level(rng.Intn(int(privacy.Owner-lo)))
		out = append(out, c)
		pol.Structural = append(pol.Structural, c.HiddenPair)
	}
	if err := pol.Validate(s); err != nil {
		t.Fatalf("%s: hidden pairs %v: %v", s.ID, pol.Structural, err)
	}
	return out
}

// edges is a directed graph over answer nodes, each named by what it
// executes: a module id, or "exec/node" for a node of one execution.
type edges map[string][]string

func (es edges) add(from, to string) { es[from] = append(es[from], to) }

// moduleOf reads the module of a node of an execution graph from its id:
// "S2:M3", "S1:M2-begin" and the source or sink "I".
func moduleOf(node string) string {
	node = node[strings.LastIndex(node, "/")+1:]
	node = node[strings.LastIndex(node, ":")+1:]
	return strings.TrimSuffix(strings.TrimSuffix(node, "-begin"), "-end")
}

// connects reports whether some node of module from reaches a node of
// module to along es.
func (es edges) connects(from, to string) bool {
	var stack []string
	seen := map[string]bool{}
	for n := range es {
		if moduleOf(n) == from {
			stack, seen[n] = append(stack, n), true
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range es[n] {
			if moduleOf(m) == to {
				return true
			}
			if !seen[m] {
				stack, seen[m] = append(stack, m), true
			}
		}
	}
	return false
}

// TestHiddenPairStaysHiddenAcrossRoutes: over random specs and policies with
// pairs added by hidePairs, at every level below a pair's, no /reach answer
// or chain of two, and no union of /provenance or /query (per execution,
// zoomed out, across executions) answers, joins its modules; at the pair's
// level /reach does.
func TestHiddenPairStaysHiddenAcrossRoutes(t *testing.T) {
	const execs = 2
	var pairs, between int
	levels := []privacy.Level{privacy.Public, privacy.Registered, privacy.Analyst, privacy.Owner}
	for seed := int64(1); seed <= 10; seed++ {
		s, err := workload.RandomSpec(workload.SpecConfig{
			Seed: seed, ID: fmt.Sprintf("sp-%d", seed), Depth: 3, Fanout: 2, Chain: 4, SkipProb: 0.3,
		})
		if err != nil {
			t.Fatal(err)
		}
		pol, err := workload.RandomPolicy(s, seed)
		if err != nil {
			t.Fatal(err)
		}
		hidden := hidePairs(t, rand.New(rand.NewSource(seed)), s, pol)
		r := repo.New()
		if err := r.AddSpec(s, pol); err != nil {
			t.Fatal(err)
		}
		var items []string
		for i := 0; i < execs; i++ {
			e, err := exec.NewRunner(s, nil).Run(fmt.Sprintf("E%d", i), workload.RandomInputs(s, int64(i)))
			if err != nil {
				t.Fatal(err)
			}
			if err := r.AddExecution(e); err != nil {
				t.Fatal(err)
			}
			items = e.ItemIDs()
		}
		for _, l := range levels {
			r.AddUser(privacy.User{Name: "u-" + l.String(), Level: l})
		}
		handler := server.New(r).Handler()
		var modules []string
		for _, wid := range s.WorkflowIDs() {
			for _, m := range s.Workflows[wid].Modules {
				modules = append(modules, m.ID)
			}
		}
		for _, hp := range hidden {
			pairs++
			if len(hp.between) > 0 {
				between++
			}
			probe := append([]string{hp.From, hp.To}, hp.between...)
			var queries []string
			for _, x := range probe {
				for _, y := range probe {
					if x != y {
						for _, rel := range []string{"->", "~>"} {
							queries = append(queries, fmt.Sprintf(`MATCH a = "id:%s", b = "id:%s" WHERE a %s b RETURN bindings`, x, y, rel))
						}
					}
				}
			}
			for _, l := range levels {
				user := "u-" + l.String()
				get := func(path string, out any) int {
					t.Helper()
					code, body := niGet(t, handler, user, path)
					if code == http.StatusOK && out != nil {
						if err := json.Unmarshal([]byte(body), out); err != nil {
							t.Fatalf("%s: %v", path, err)
						}
					}
					return code
				}
				// reach is true on a 200 that says so; an expanded composite
				// is refused as an endpoint (400), whatever the edges.
				reach := func(from, to string) bool {
					t.Helper()
					var ans struct{ Reaches bool }
					return get("/api/v1/reach?"+url.Values{"spec": {s.ID}, "from": {from}, "to": {to}}.Encode(), &ans) == http.StatusOK && ans.Reaches
				}
				where := fmt.Sprintf("seed %d, %s, pair %s->%s hidden below %s", seed, user, hp.From, hp.To, hp.Level)
				if l == hp.Level {
					if !reach(hp.From, hp.To) {
						t.Fatalf("%s: /reach answers false at the pair's own level", where)
					}
				}
				if l >= hp.Level {
					continue
				}
				if reach(hp.From, hp.To) {
					t.Fatalf("%s: /reach answers true", where)
				}
				for _, w := range modules {
					if reach(hp.From, w) && reach(w, hp.To) {
						t.Fatalf("%s: /reach chains through %s", where, w)
					}
				}
				es := edges{}
				for i := 0; i < execs; i++ {
					execID := fmt.Sprintf("E%d", i)
					for _, item := range items {
						var ans struct{ Provenance *exec.Execution }
						if get("/api/v1/provenance?"+url.Values{"spec": {s.ID}, "exec": {execID}, "item": {item}}.Encode(), &ans) == http.StatusOK {
							for _, e := range ans.Provenance.Edges {
								es.add(execID+"/"+e.From, execID+"/"+e.To)
							}
						}
					}
				}
				for _, q := range queries {
					paths := []string{"/api/v1/query?" + url.Values{"spec": {s.ID}, "q": {q}}.Encode()}
					for i := 0; i < execs; i++ {
						for _, zoom := range []string{"0", "1"} {
							paths = append(paths, "/api/v1/query?"+url.Values{"spec": {s.ID}, "exec": {fmt.Sprintf("E%d", i)}, "q": {q}, "zoom": {zoom}}.Encode())
						}
					}
					for _, path := range paths {
						var page struct {
							Answers []struct {
								Execution string
								Bindings  []map[string]string
							}
						}
						get(path, &page)
						for _, a := range page.Answers {
							for _, b := range a.Bindings {
								es.add(a.Execution+"/"+b["a"], a.Execution+"/"+b["b"])
							}
						}
					}
				}
				if es.connects(hp.From, hp.To) {
					t.Fatalf("%s: the edges of the /provenance and /query answers connect the pair", where)
				}
			}
		}
	}
	if between == 0 {
		t.Fatalf("fixture checks too little: none of its %d pairs has a module between its endpoints", pairs)
	}
}
