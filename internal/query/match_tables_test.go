package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unicode"

	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/search"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// scanMatchingNodes is Evaluator.matchingNodes as it stood before the
// evaluator kept per-spec tables: for every node it finds the module by
// walking the spec's workflows in sorted order and rebuilds the module's
// normalized term set. It is the oracle the table matcher must agree with.
func scanMatchingNodes(s *workflow.Spec, e *exec.Execution, phrase []string, pol *privacy.Policy, level privacy.Level) []string {
	var idLiteral string
	if len(phrase) == 1 && strings.HasPrefix(phrase[0], "id:") {
		idLiteral = phrase[0][len("id:"):]
	}
	var out []string
	for _, n := range e.Nodes {
		switch n.Kind {
		case exec.AtomicNode, exec.BeginNode:
		default:
			continue
		}
		if n.Module == "" {
			continue
		}
		m := scanFindModule(s, n.Module)
		if m == nil {
			continue
		}
		if pol != nil && !pol.CanSeeModule(level, m.ID) {
			continue
		}
		if idLiteral != "" {
			if strings.EqualFold(m.ID, idLiteral) {
				out = append(out, n.ID)
			}
			continue
		}
		if phraseMatchesModule(m, phrase) {
			out = append(out, n.ID)
		}
	}
	sort.Strings(out)
	return out
}

func scanFindModule(s *workflow.Spec, id string) *workflow.Module {
	for _, wid := range s.WorkflowIDs() {
		if m := s.Workflows[wid].Module(id); m != nil {
			return m
		}
	}
	return nil
}

func phraseMatchesModule(m *workflow.Module, phrase []string) bool {
	terms := make(map[string]bool)
	for _, k := range m.AllKeywords() {
		terms[search.Normalize(k)] = true
	}
	for _, p := range phrase {
		if !terms[p] {
			return false
		}
	}
	return true
}

// mixCase flips the case of a random half of s's letters.
func mixCase(rng *rand.Rand, s string) string {
	rs := []rune(s)
	for i, r := range rs {
		if rng.Intn(2) == 0 {
			continue
		}
		if unicode.IsUpper(r) {
			rs[i] = unicode.ToLower(r)
		} else {
			rs[i] = unicode.ToUpper(r)
		}
	}
	return string(rs)
}

// phrasesFor draws the phrase shapes a query can carry from a spec: one
// and two terms of a single module, terms of two different modules, an
// unknown term, id literals in mixed case (of a real and of an unknown
// module), and the bare "id:" that is not a literal at all.
func phrasesFor(rng *rand.Rand, s *workflow.Spec) [][]string {
	var mods []*workflow.Module
	for _, wid := range s.WorkflowIDs() {
		mods = append(mods, s.Workflows[wid].Modules...)
	}
	terms := func(m *workflow.Module) []string {
		var out []string
		for _, k := range m.AllKeywords() {
			out = append(out, search.Normalize(k))
		}
		return out
	}
	a, b := mods[rng.Intn(len(mods))], mods[rng.Intn(len(mods))]
	ta, tb := terms(a), terms(b)
	return [][]string{
		{ta[rng.Intn(len(ta))]},
		{ta[0], ta[len(ta)-1]},
		{ta[rng.Intn(len(ta))], tb[rng.Intn(len(tb))]},
		{ta[0], "zzunknown"},
		{"zzunknown"},
		{"id:" + mixCase(rng, a.ID)},
		{"id:" + strings.ToLower(b.ID)},
		{"id:" + a.ID, ta[0]},
		{"id:nosuchmodule"},
		{"id:"},
	}
}

// checkTablesAgainstScan compares the table matcher with the scan on the
// full execution and on the view each level is served, at every level, and
// returns how many nodes the scan bound in all.
func checkTablesAgainstScan(t *testing.T, s *workflow.Spec, pol *privacy.Policy, e *exec.Execution, phrases [][]string) (bound int) {
	t.Helper()
	ev := NewEvaluator(s)
	h, err := workflow.NewHierarchy(s)
	if err != nil {
		t.Fatal(err)
	}
	for level := privacy.Public; level <= privacy.Owner; level++ {
		view, _, err := exec.CollapseIn(e, h, pol.AccessView(h, level))
		if err != nil {
			t.Fatal(err)
		}
		for _, on := range []*exec.Execution{e, view} {
			pe, err := PrepareExec(on)
			if err != nil {
				t.Fatal(err)
			}
			for _, ph := range phrases {
				got := ev.matchingNodes(pe, ph, pol, level)
				want := scanMatchingNodes(s, on, ph, pol, level)
				bound += len(want)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("spec %s level %v phrase %q: tables bind %v, scan binds %v", s.ID, level, ph, got, want)
				}
			}
		}
	}
	return bound
}

func randomCase(t *testing.T, specSeed, polSeed int64, cfg workload.SpecConfig) (*workflow.Spec, *privacy.Policy, *exec.Execution) {
	t.Helper()
	cfg.Seed, cfg.ID = specSeed, fmt.Sprintf("tables-%d", specSeed)
	s, err := workload.RandomSpec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := workload.RandomPolicy(s, polSeed)
	if err != nil {
		t.Fatal(err)
	}
	e, err := exec.NewRunner(s, nil).Run("E", workload.RandomInputs(s, specSeed))
	if err != nil {
		t.Fatal(err)
	}
	return s, pol, e
}

func TestMatchTablesAgreeWithScan(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		s, pol, e := randomCase(t, seed, seed*31, workload.SpecConfig{
			Depth: 1 + int(seed%3), Fanout: 2, Chain: 3 + int(seed%3), SkipProb: 0.2,
		})
		rng := rand.New(rand.NewSource(seed))
		var phrases [][]string
		for i := 0; i < 4; i++ {
			phrases = append(phrases, phrasesFor(rng, s)...)
		}
		if checkTablesAgainstScan(t, s, pol, e, phrases) == 0 {
			t.Errorf("spec %s: no phrase bound any node, the comparison is vacuous", s.ID)
		}
	}
}

// A spec that was never validated may repeat a module id; the scan
// resolves it in the workflow whose id sorts first, and so must the table.
func TestMatchTablesResolveRepeatedIDLikeScan(t *testing.T) {
	s := &workflow.Spec{ID: "dup", Root: "W1", Workflows: map[string]*workflow.Workflow{}}
	for i := 9; i >= 1; i-- {
		wid := fmt.Sprintf("W%d", i)
		s.Workflows[wid] = &workflow.Workflow{ID: wid, Modules: []*workflow.Module{
			{ID: "dup", Name: fmt.Sprintf("Step %s", wid)},
		}}
	}
	e := &exec.Execution{ID: "E", SpecID: s.ID, Nodes: []*exec.Node{{ID: "n1", Module: "dup", Kind: exec.AtomicNode}}}
	ev := NewEvaluator(s)
	pe, err := PrepareExec(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range [][]string{{"w1"}, {"w2"}, {"w9"}, {"step"}, {"id:DUP"}} {
		got, want := ev.matchingNodes(pe, ph, nil, 0), scanMatchingNodes(s, e, ph, nil, 0)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("phrase %q: tables bind %v, scan binds %v", ph, got, want)
		}
	}
	if got := ev.matchingNodes(pe, []string{"w1"}, nil, 0); len(got) != 1 {
		t.Fatalf("the module of W1 was not the one bound: %v", got)
	}
}

func FuzzMatchTablesAgreeWithScan(f *testing.F) {
	f.Add(int64(1), int64(2), "query")
	f.Add(int64(3), int64(3), "align reads")
	f.Add(int64(5), int64(8), "id:M2")
	f.Add(int64(5), int64(8), "id:m2")
	f.Add(int64(7), int64(1), "id:")
	f.Add(int64(9), int64(4), "id:M1 query")
	f.Add(int64(2), int64(6), "zzunknown")
	f.Fuzz(func(t *testing.T, specSeed, polSeed int64, phrase string) {
		toks := strings.Fields(phrase)
		if len(toks) == 0 {
			return
		}
		s, pol, e := randomCase(t, specSeed, polSeed, workload.SpecConfig{Depth: 2, Fanout: 1, Chain: 3})
		rng := rand.New(rand.NewSource(specSeed ^ polSeed))
		checkTablesAgainstScan(t, s, pol, e, append(phrasesFor(rng, s), toks))
	})
}

// An id literal selects its module ignoring case, including outside ASCII,
// where a byte-wise fold would miss it.
func TestIDLiteralFoldsCaseOutsideASCII(t *testing.T) {
	s := workflow.NewBuilder("fold", "Fold", "R").
		Workflow("R", "Root").
		Source("I", "x").
		Atomic("MÄ1", "Umlaut Step", []string{"x"}, []string{"y"}).
		Atomic("m2", "Plain Step", []string{"y"}, []string{"z"}).
		Sink("O", "z").
		Edge("I", "MÄ1", "x").
		Edge("MÄ1", "m2", "y").
		Edge("m2", "O", "z").
		MustBuild()
	e, err := exec.NewRunner(s, nil).Run("E", map[string]exec.Value{"x": "v"})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(s)
	for _, tc := range []struct{ literal, module string }{
		{"id:MÄ1", "MÄ1"}, {"id:mä1", "MÄ1"}, {"id:Mä1", "MÄ1"}, {"id:M2", "m2"}, {"id:m2", "m2"},
	} {
		q, err := Parse(`MATCH a = "` + tc.literal + `"`)
		if err != nil {
			t.Fatal(err)
		}
		onExec, err := ev.Evaluate(q, e)
		if err != nil {
			t.Fatal(err)
		}
		if len(onExec.Bindings) != 1 || e.Node(onExec.Bindings[0]["a"]).Module != tc.module {
			t.Errorf("%s: execution query binds %v, want the node of %s", tc.literal, onExec.Bindings, tc.module)
		}
	}
}
