package search

import (
	"reflect"
	"strings"
	"testing"

	"provpriv/internal/privacy"
	"provpriv/internal/workflow"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("Disorder-Risks and_some/Queries")
	want := []string{"disorder", "risk", "and", "some", "querie"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"Risks": "risk", "gas": "gas", "DBs": "dbs" /* len<4 kept */, "ab": "ab",
	}
	// "class" strips nothing ("ss" guard).
	if Normalize("class") != "class" {
		t.Fatalf("Normalize(class) = %s, want class (ss guard)", Normalize("class"))
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Fatalf("Normalize(%s) = %s, want %s", in, got, want)
		}
	}
}

func TestParseQuery(t *testing.T) {
	q := ParseQuery("Database, Disorder Risks")
	if len(q) != 2 {
		t.Fatalf("phrases = %v", q)
	}
	if q[0][0] != "database" {
		t.Fatalf("q[0] = %v", q[0])
	}
	if strings.Join(q[1], "+") != "disorder+risk" {
		t.Fatalf("q[1] = %v", q[1])
	}
	if got := ParseQuery(" ,, "); got != nil {
		t.Fatalf("empty query = %v", got)
	}
}

// The headline test: the paper's Fig. 5 result.
func TestSearchReproducesFig5(t *testing.T) {
	spec := workflow.DiseaseSusceptibility()
	res, err := Search(spec, ParseQuery("Database, Disorder Risks"))
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	// Fig. 5 view: prefix {W1, W2, W4} — modules I, M3, M5, M6, M7, M8,
	// M2, O.
	if strings.Join(res.Prefix().IDs(), ",") != "W1,W2,W4" {
		t.Fatalf("prefix = %v, want W1,W2,W4", res.Prefix().IDs())
	}
	got := strings.Join(MustView(t, res).ModuleIDs(), ",")
	if got != "I,M2,M3,M5,M6,M7,M8,O" {
		t.Fatalf("view modules = %s, want I,M2,M3,M5,M6,M7,M8,O", got)
	}
	// "disorder risks" matched the collapsed M2; "database" matched
	// atomic modules inside W4.
	byPhrase := make(map[string][]string)
	for _, m := range res.Matches {
		byPhrase[m.Phrase] = append(byPhrase[m.Phrase], m.ModuleID)
	}
	if !containsID(byPhrase["disorder risk"], "M2") {
		t.Fatalf("disorder-risk matches = %v, want M2", byPhrase["disorder risk"])
	}
	if !containsID(byPhrase["database"], "M5") {
		t.Fatalf("database matches = %v, want M5", byPhrase["database"])
	}
	if res.ZoomedOut {
		t.Fatal("unexpected zoom-out without privacy")
	}
}

func containsID(ids []string, want string) bool {
	for _, id := range ids {
		if id == want {
			return true
		}
	}
	return false
}

func TestSearchMatchesNamesNotAttributes(t *testing.T) {
	// "prognosis" is a data attribute, not a module name or keyword:
	// keyword search is over module terms, so it must report no match.
	spec := workflow.DiseaseSusceptibility()
	if _, err := Search(spec, ParseQuery("prognosis")); err == nil {
		t.Fatal("attribute name matched as module keyword")
	}
}

func TestSearchNoMatch(t *testing.T) {
	spec := workflow.DiseaseSusceptibility()
	if _, err := Search(spec, ParseQuery("nonexistent")); err == nil {
		t.Fatal("no-match query succeeded")
	}
	if _, err := Search(spec, nil); err == nil {
		t.Fatal("empty query succeeded")
	}
}

func TestSearchRootLevelMatchStaysCollapsed(t *testing.T) {
	spec := workflow.DiseaseSusceptibility()
	res, err := Search(spec, ParseQuery("genetic susceptibility"))
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	// M1 "Determine Genetic Susceptibility" matches; nothing inside W2
	// matches both terms, so the view stays at {W1}.
	if strings.Join(res.Prefix().IDs(), ",") != "W1" {
		t.Fatalf("prefix = %v, want W1", res.Prefix().IDs())
	}
	if MustView(t, res).Module("M1") == nil {
		t.Fatal("M1 not visible")
	}
}

func TestSearchDrillsPastComposite(t *testing.T) {
	spec := workflow.DiseaseSusceptibility()
	// "omim" matches only M6 inside W4: both W2 and W4 must expand.
	res, err := Search(spec, ParseQuery("omim"))
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if strings.Join(res.Prefix().IDs(), ",") != "W1,W2,W4" {
		t.Fatalf("prefix = %v", res.Prefix().IDs())
	}
}

func TestSearchWithAccessZoomsOut(t *testing.T) {
	spec := workflow.DiseaseSusceptibility()
	pol := privacy.NewPolicy(spec.ID)
	access := workflow.NewPrefix("W1", "W2") // W4 not allowed
	res, err := SearchWithAccess(spec, ParseQuery("omim"), access, pol, privacy.Registered)
	if err != nil {
		t.Fatalf("SearchWithAccess: %v", err)
	}
	if !res.ZoomedOut {
		t.Fatal("expected zoom-out")
	}
	// View must not exceed the access view.
	for wid := range res.Prefix() {
		if !access.Contains(wid) {
			t.Fatalf("prefix %v exceeds access view", res.Prefix().IDs())
		}
	}
	// The match on M6, inside the withdrawn W4, is reported as the
	// composite M4 that stands for W4, zoomed out to itself.
	want := []Match{{Phrase: "omim", ModuleID: "M4", Workflow: "W2", ZoomedTo: "M4"}}
	if !reflect.DeepEqual(res.Matches, want) {
		t.Fatalf("matches = %+v, want %+v", res.Matches, want)
	}
}

// TestSearchWithdrawnMatchNamesTheVisibleComposite: root W runs D, which
// carries "align", and composite C1, whose W1 runs composite C2, whose W2
// runs a and b, which both carry it. With W2 withdrawn, a and b are reported
// once, as C2 (zoomed out to C1, which the minimal view shows); with C2
// module-private too, as C1, the next composite up; with C1 private as
// well, not at all. SearchMatched, handed the three modules, answers alike.
func TestSearchWithdrawnMatchNamesTheVisibleComposite(t *testing.T) {
	b := workflow.NewBuilder("nested", "Nested", "W").
		Workflow("W", "Root").
		Source("I", "in").
		Composite("C1", "Outer", "W1", []string{"in"}, []string{"out"}).
		Atomic("D", "Deliver", []string{"out"}, []string{"done"}, "align").
		Sink("O", "done").
		Edge("I", "C1", "in").Edge("C1", "D", "out").Edge("D", "O", "done")
	b.Workflow("W1", "Middle").
		Composite("C2", "Inner", "W2", []string{"in"}, []string{"out"})
	b.Workflow("W2", "Inside").
		Atomic("a", "First", []string{"in"}, []string{"x"}, "align").
		Atomic("b", "Second", []string{"x"}, []string{"out"}, "align").
		Edge("a", "b", "x")
	spec, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	h, err := workflow.NewHierarchy(spec)
	if err != nil {
		t.Fatal(err)
	}
	access := workflow.NewPrefix("W", "W1")
	d := Match{Phrase: "align", ModuleID: "D", Workflow: "W"}
	for _, tc := range []struct {
		private []string
		want    []Match
	}{
		{nil, []Match{{Phrase: "align", ModuleID: "C2", Workflow: "W1", ZoomedTo: "C1"}, d}},
		{[]string{"C2"}, []Match{{Phrase: "align", ModuleID: "C1", Workflow: "W", ZoomedTo: "C1"}, d}},
		{[]string{"C2", "C1"}, []Match{d}},
	} {
		pol := privacy.NewPolicy(spec.ID)
		for _, id := range tc.private {
			pol.ModuleLevels[id] = privacy.Owner
		}
		res, err := SearchWithAccess(spec, ParseQuery("align"), access, pol, privacy.Public)
		if err != nil || !reflect.DeepEqual(res.Matches, tc.want) {
			t.Fatalf("private %v: matches %+v (%v), want %+v", tc.private, res, err, tc.want)
		}
		handed := [][]int32{{h.Place("D").Ord, h.Place("a").Ord, h.Place("b").Ord}}
		res, err = SearchMatched(spec, h, []string{"align"}, handed, pol.ModuleNeeds(h), h.Bits(access), privacy.Public)
		if err != nil || !reflect.DeepEqual(res.Matches, tc.want) {
			t.Fatalf("private %v: SearchMatched matches %+v (%v), want %+v", tc.private, res, err, tc.want)
		}
	}
}

func TestSearchWithAccessModulePrivacy(t *testing.T) {
	spec := workflow.DiseaseSusceptibility()
	pol := privacy.NewPolicy(spec.ID)
	pol.ModuleLevels["M6"] = privacy.Owner // Query OMIM is proprietary
	h, _ := workflow.NewHierarchy(spec)
	access := workflow.FullPrefix(h)
	// "omim" only matches the private module: public search must fail.
	if _, err := SearchWithAccess(spec, ParseQuery("omim"), access, pol, privacy.Public); err == nil {
		t.Fatal("private module matched for public user")
	}
	// The owner still finds it.
	res, err := SearchWithAccess(spec, ParseQuery("omim"), access, pol, privacy.Owner)
	if err != nil {
		t.Fatalf("owner search: %v", err)
	}
	if len(res.Matches) == 0 || res.Matches[0].ModuleID != "M6" {
		t.Fatalf("owner matches = %v", res.Matches)
	}
}

// TestSearchMatchedRechecksHandedModules holds SearchMatched to its
// enforcement contract: a handed module ordinal is bounds-checked against
// the hierarchy and re-checked against the level each module needs, so a
// list naming a module hidden from the asker's level, or an ordinal the
// spec lacks, cannot widen the answer. Without the re-check the public
// search below would find the proprietary Query OMIM.
func TestSearchMatchedRechecksHandedModules(t *testing.T) {
	spec := workflow.DiseaseSusceptibility()
	pol := privacy.NewPolicy(spec.ID)
	pol.ModuleLevels["M6"] = privacy.Owner // Query OMIM is proprietary
	h, _ := workflow.NewHierarchy(spec)
	access, need := h.Bits(workflow.FullPrefix(h)), pol.ModuleNeeds(h)
	m2, m6 := h.Place("M2").Ord, h.Place("M6").Ord
	omim := [][]int32{{m6}}
	if res, err := SearchMatched(spec, h, []string{"omim"}, omim, need, access, privacy.Public); err == nil {
		t.Fatalf("a handed module hidden from public answered: %+v", res.Matches)
	}
	if res, err := SearchMatched(spec, h, []string{"omim"}, omim, need, access, privacy.Owner); err != nil || len(res.Matches) != 1 || res.Matches[0].ModuleID != "M6" {
		t.Fatalf("owner: %v, %v; want the match on M6", res, err)
	}
	// Each of the hidden M6, -1 and the first ordinal past the hierarchy's
	// modules is dropped: alone it answers nothing, beside M2 only M2.
	for _, bad := range []int32{m6, -1, int32(h.Modules())} {
		if res, err := SearchMatched(spec, h, []string{"x"}, [][]int32{{bad}}, need, access, privacy.Public); err == nil {
			t.Fatalf("handed ordinal %d answered public: %+v", bad, res.Matches)
		}
		res, err := SearchMatched(spec, h, []string{"x"}, [][]int32{{bad, m2, bad}}, need, access, privacy.Public)
		if err != nil {
			t.Fatalf("public, ordinal %d beside M2: %v", bad, err)
		}
		if len(res.Matches) != 1 || res.Matches[0].ModuleID != "M2" {
			t.Fatalf("public answer beside ordinal %d reports %+v; only M2 may be", bad, res.Matches)
		}
	}
	// A level table that is not the hierarchy's is refused outright.
	if _, err := SearchMatched(spec, h, []string{"omim"}, omim, need[1:], access, privacy.Owner); err == nil {
		t.Fatal("a level table one short of the hierarchy's modules was accepted")
	}
}

func TestSearchWithAccessNilView(t *testing.T) {
	spec := workflow.DiseaseSusceptibility()
	if _, err := SearchWithAccess(spec, ParseQuery("database"), nil, nil, 0); err == nil {
		t.Fatal("nil access view accepted")
	}
}

// Property: the result prefix is always a valid prefix, and every
// reported non-zoomed match is visible in the view.
func TestSearchResultWellFormed(t *testing.T) {
	spec := workflow.DiseaseSusceptibility()
	h, _ := workflow.NewHierarchy(spec)
	queries := []string{"database", "pubmed", "query", "disorder", "snp", "summary"}
	for _, q := range queries {
		res, err := Search(spec, ParseQuery(q))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if err := res.Prefix().Validate(h); err != nil {
			t.Fatalf("%s: invalid prefix: %v", q, err)
		}
		for _, m := range res.Matches {
			if m.ZoomedTo == "" && MustView(t, res).Module(m.ModuleID) == nil {
				t.Fatalf("%s: match %s not visible", q, m.ModuleID)
			}
		}
	}
}
