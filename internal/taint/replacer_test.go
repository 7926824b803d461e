package taint

// Differential harness for the compiled sanitizer: the pre-compiled
// implementation — one strings.Contains/ReplaceAll pass per protected
// label — is preserved here as the executable specification, and the
// compiled replacer is required to be byte-identical to it across
// the same randomized workflow corpus the leak property tests use, at
// every access level, with and without generalization ladders — and on
// hand-built executions whose derived items carry hundreds of active
// patterns, a count the corpus never reaches.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/workload"
)

// referenceRewrite is the original per-label rewrite loop, verbatim.
func referenceRewrite(en *Engine, v exec.Value, level privacy.Level, labels []Label) (exec.Value, bool, bool) {
	if len(labels) == 0 {
		return v, false, true
	}
	labels = dedupeLabels(labels)
	s := string(v)
	changed := false
	for _, l := range labels {
		raw := string(l.Raw)
		if !strings.Contains(s, raw) {
			continue
		}
		s = strings.ReplaceAll(s, raw, string(en.replacement(l, level)))
		changed = true
	}
	for _, l := range labels {
		if strings.Contains(s, string(l.Raw)) {
			return v, changed, false
		}
	}
	return exec.Value(s), changed, true
}

// dedupeLabels drops duplicate (attr, raw) pairs and orders by
// descending raw length (so a raw that contains another raw is replaced
// first), breaking ties lexicographically for determinism.
func dedupeLabels(labels []Label) []Label {
	type key struct {
		attr string
		raw  exec.Value
	}
	seen := make(map[key]bool, len(labels))
	out := make([]Label, 0, len(labels))
	for _, l := range labels {
		k := key{l.Attr, l.Raw}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Raw) != len(out[j].Raw) {
			return len(out[i].Raw) > len(out[j].Raw)
		}
		if out[i].Attr != out[j].Attr {
			return out[i].Attr < out[j].Attr
		}
		return out[i].Raw < out[j].Raw
	})
	return out
}

// referenceApply is the original Apply masking loop driving
// referenceRewrite through Set.LabelsFor.
func referenceApply(en *Engine, e *exec.Execution, level privacy.Level, set *Set) (map[string]exec.DataItem, Report) {
	var rep Report
	out := make(map[string]exec.DataItem, len(e.Items))
	for id, it := range e.Items {
		cp := *it
		required := en.Policy.DataLevels[it.Attr]
		labels := set.LabelsFor(id, level)
		if level >= required {
			v, changed, clean := referenceRewrite(en, it.Value, level, labels)
			switch {
			case !clean:
				cp.Value, cp.Redacted = "", true
				rep.TaintRedacted++
			case changed:
				cp.Value = v
				rep.Rewritten++
			default:
				rep.Visible++
			}
			out[id] = cp
			continue
		}
		if g := en.generalizer(it.Attr); g != nil {
			gen := g.Generalize(it.Value, int(required-level))
			if v, _, clean := referenceRewrite(en, gen, level, labels); clean {
				cp.Value = v
				rep.Generalized++
				out[id] = cp
				continue
			}
		}
		cp.Value, cp.Redacted = "", true
		rep.Redacted++
		out[id] = cp
	}
	return out, rep
}

func diffOne(t *testing.T, tag string, en *Engine, e *exec.Execution, level privacy.Level) {
	t.Helper()
	set := en.Analyze(e)
	masked, rep := en.Apply(e, level, set)
	want, wantRep := referenceApply(en, e, level, set)
	if rep != wantRep {
		t.Errorf("%s @%s: report %+v, reference %+v", tag, level, rep, wantRep)
	}
	for id, w := range want {
		got := masked.Items[id]
		if got == nil {
			t.Errorf("%s @%s: item %s missing from compiled output", tag, id, level)
			continue
		}
		if got.Value != w.Value || got.Redacted != w.Redacted {
			t.Errorf("%s @%s: item %s = (%q, redacted=%v), reference (%q, redacted=%v)",
				tag, level, id, got.Value, got.Redacted, w.Value, w.Redacted)
		}
	}
}

func corpusRun(t testing.TB, seed int64) (*exec.Execution, *privacy.Policy) {
	t.Helper()
	s, err := workload.RandomSpec(workload.SpecConfig{
		Seed: seed, Depth: 3, Fanout: 2, Chain: 4, SkipProb: 0.3,
	})
	if err != nil {
		t.Fatalf("seed %d: RandomSpec: %v", seed, err)
	}
	pol, err := workload.RandomPolicy(s, seed)
	if err != nil {
		t.Fatalf("seed %d: RandomPolicy: %v", seed, err)
	}
	inputs := workload.RandomInputs(s, seed)
	attrs := make([]string, 0, len(inputs))
	for a := range inputs {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	pol.DataLevels[attrs[0]] = privacy.Owner
	e, err := exec.NewRunner(s, nil).Run("E", inputs)
	if err != nil {
		t.Fatalf("seed %d: Run: %v", seed, err)
	}
	return e, pol
}

// ladder is a minimal test Generalizer: every value coarsens to one
// fixed form per depth.
type ladder struct {
	depth int
	form  string
}

func (l ladder) Generalize(v exec.Value, depth int) exec.Value {
	if depth <= 0 {
		return v
	}
	return exec.Value(fmt.Sprintf("%s<%d>", l.form, min(depth, l.depth)))
}

func (l ladder) MaxDepth() int { return l.depth }

var diffLevels = []privacy.Level{privacy.Public, privacy.Registered, privacy.Analyst, privacy.Owner}

// embeds is a test Generalizer whose every coarsening names another value.
type embeds string

func (g embeds) Generalize(v exec.Value, depth int) exec.Value {
	if depth <= 0 {
		return v
	}
	return exec.Value("see " + string(g))
}

func (embeds) MaxDepth() int { return 1 }

// manyPatternRun is an execution the corpus cannot produce: one module
// consumes n protected inputs, so its outputs — which embed every input's
// raw value, ";"-separated in input order, "|"-separated in a seeded
// shuffle, and a third of them space-separated — carry n taint patterns,
// all of them active at public and a third fewer per level above. The raw
// values come in blocks of eight that exercise what makes the mark pass
// more than a loop of replacements: a prefix chain (K7, K7A, K7AB: the
// longest active one must win at a shared start), a raw that is a suffix
// of another (Z7 in WWZ7), one raw under two attributes (the first active
// in priority order claims it), a raw that overlaps itself when repeated
// (M7M7, embedded tripled), and an attribute whose generalized form embeds
// a longer raw of the block (E7 → "see WWZ7": where both are active the
// rewrite cannot be proved clean and the item is redacted). Required
// levels cycle with a period coprime to the block's, so every member of a
// block is at some level the only active one. Nothing here lets two
// patterns overlap partially; there the single pass and the sequential
// loop may legitimately differ (see replacer.go).
func manyPatternRun(seed int64, n int) (*exec.Execution, *privacy.Policy, map[string]Generalizer) {
	pol := privacy.NewPolicy("many")
	gens := make(map[string]Generalizer)
	e := &exec.Execution{
		ID: "E", SpecID: "many",
		Nodes: []*exec.Node{
			{ID: "I", Kind: exec.SourceNode},
			{ID: "S1:M", Module: "M", Proc: "S1", Kind: exec.AtomicNode},
			{ID: "O", Kind: exec.SinkNode},
		},
		Items: make(map[string]*exec.DataItem),
	}
	var inputs, embedded []string
	for i := 0; i < n; i++ {
		b := fmt.Sprintf("%03d", i/8)
		attr := fmt.Sprintf("p%c%c%c", 'a'+i/8/26, 'a'+i/8%26, 'a'+i%8) // letters only: no raw matches inside a mask token
		raw := [...]string{"K" + b, "K" + b + "A", "K" + b + "AB", "WWZ" + b, "Z" + b, "K" + b, "M" + b + "M" + b, "E" + b}[i%8]
		pol.DataLevels[attr] = privacy.Registered + privacy.Level(i%3)
		switch i % 8 {
		case 2:
			gens[attr] = ladder{depth: 3, form: "gen:" + attr}
		case 7:
			gens[attr] = embeds("WWZ" + b)
		}
		id := fmt.Sprintf("d%d", i)
		e.Items[id] = &exec.DataItem{ID: id, Attr: attr, Value: exec.Value(raw), Producer: "I"}
		inputs = append(inputs, id)
		if i%8 == 6 {
			raw += "M" + b
		}
		embedded = append(embedded, raw)
	}
	shuffled := append([]string(nil), embedded...)
	rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	var third []string
	for i := int(uint64(seed) % 3); i < n; i += 3 {
		third = append(third, embedded[i])
	}
	var outputs []string
	for i, v := range []string{strings.Join(embedded, ";"), strings.Join(shuffled, "|"), strings.Join(third, " "), "f(nothing protected)"} {
		id := fmt.Sprintf("d%d", n+i)
		e.Items[id] = &exec.DataItem{ID: id, Attr: fmt.Sprintf("out%c", 'a'+i), Value: exec.Value(v), Producer: "S1:M"}
		outputs = append(outputs, id)
	}
	e.Edges = []exec.Edge{{From: "I", To: "S1:M", Items: inputs}, {From: "S1:M", To: "O", Items: outputs}}
	return e, pol, gens
}

// diffMany holds the compiled sanitizer to the reference on
// manyPatternRun(seed, n) at every level, without and with its generalizers.
func diffMany(t *testing.T, seed int64, n int) {
	t.Helper()
	e, pol, gens := manyPatternRun(seed, n)
	if err := e.Validate(); err != nil {
		t.Fatalf("manyPatternRun(%d, %d): %v", seed, n, err)
	}
	for name, en := range map[string]*Engine{"plain": NewEngine(pol, nil), "ladder": NewEngine(pol, gens)} {
		for _, lvl := range diffLevels {
			diffOne(t, fmt.Sprintf("many n=%d seed=%d/%s", n, seed, name), en, e, lvl)
		}
	}
}

// TestCompiledSanitizerMatchesReference is the differential property
// test of the acceptance criteria: across the randomized corpus, every
// access level, with no generalizers and with a ladder on every
// protected attribute, the compiled single-pass sanitizer produces
// byte-identical values, redaction flags and reports to the sequential
// per-label loop.
func TestCompiledSanitizerMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		e, pol := corpusRun(t, seed)
		plain := NewEngine(pol, nil)
		gens := make(map[string]Generalizer)
		for attr := range pol.DataLevels {
			gens[attr] = ladder{depth: 3, form: "gen:" + attr}
		}
		laddered := NewEngine(pol, gens)
		for _, lvl := range diffLevels {
			diffOne(t, fmt.Sprintf("seed=%d/plain", seed), plain, e, lvl)
			diffOne(t, fmt.Sprintf("seed=%d/ladder", seed), laddered, e, lvl)
		}
	}
	// Past what the corpus reaches: ≥ 64 and ≥ 256 patterns active on one
	// value. The fixture must have bitten — every pattern armed at public,
	// values rewritten, and a rewrite that could not be proved clean.
	for _, n := range []int{96, 400} {
		diffMany(t, 1, n)
		e, pol, gens := manyPatternRun(1, n)
		en := NewEngine(pol, gens)
		set := en.Analyze(e)
		if got := len(dedupeLabels(set.LabelsFor(fmt.Sprintf("d%d", n), privacy.Public))); got != n {
			t.Fatalf("n=%d: %d patterns active on the first output at public, want all", n, got)
		}
		if _, rep := en.Apply(e, privacy.Public, set); rep.TaintRedacted == 0 {
			t.Fatalf("n=%d: no rewrite failed verification at public: %+v", n, rep)
		}
		if _, rep := en.Apply(e, privacy.Analyst, set); rep.Rewritten == 0 {
			t.Fatalf("n=%d: nothing rewritten at analyst: %+v", n, rep)
		}
	}
}

// FuzzSanitizerDifferential extends the taint fuzz corpus to the
// compiled/reference equivalence (the leak oracle itself is fuzzed by
// FuzzTaintNoLeak in property_test.go, which now exercises the compiled
// path end to end).
func FuzzSanitizerDifferential(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(7), uint8(1))
	f.Add(int64(42), uint8(2))
	f.Add(int64(1001), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, lvl uint8) {
		level := diffLevels[int(lvl)%len(diffLevels)]
		e, pol := corpusRun(t, seed)
		diffOne(t, fmt.Sprintf("fuzz seed=%d", seed), NewEngine(pol, nil), e, level)
		// And one many-pattern execution per input: 64 to 319 patterns.
		diffMany(t, seed, 64+int(uint64(seed)%256))
	})
}

// compileReplacer is the sanitizer a Set compiles over labels.
func compileReplacer(labels []Label) *Replacer {
	var s Set
	for _, l := range labels {
		s.srcs = append(s.srcs, source{Label: l})
	}
	s.compile()
	return &s.repl
}

// synthetic labels for replacer unit tests.
func mkLabels(pairs ...[2]string) []Label {
	out := make([]Label, 0, len(pairs))
	for i, p := range pairs {
		out = append(out, Label{
			ItemID: fmt.Sprintf("d%d", i), Attr: p[0], Required: privacy.Owner, Raw: exec.Value(p[1]),
		})
	}
	return out
}

func rewriteAll(r *Replacer, s string) (string, bool, bool) {
	active := func(int32) bool { return true }
	repl := func(p int32) string { return "[" + r.pats[p].attr + ":*]" }
	return r.rewrite(s, active, repl)
}

func TestReplacerLongestMatchWins(t *testing.T) {
	r := compileReplacer(mkLabels([2]string{"a", "v1"}, [2]string{"b", "v12"}))
	// "v12" must win over its prefix "v1" where both start.
	got, changed, clean := rewriteAll(r, "x=v12;y=v1;")
	if want := "x=[b:*];y=[a:*];"; got != want || !changed || !clean {
		t.Fatalf("rewrite = (%q, %v, %v), want (%q, true, true)", got, changed, clean, want)
	}
}

func TestReplacerSuffixPatternViaOutLink(t *testing.T) {
	// "12" is a suffix of the longer pattern: on its own it is replaced,
	// inside an occurrence of "xy12" the longer pattern takes the span.
	r := compileReplacer(mkLabels([2]string{"long", "xy12"}, [2]string{"short", "12"}))
	got, _, clean := rewriteAll(r, "a12b xy12 c")
	if want := "a[short:*]b [long:*] c"; got != want || !clean {
		t.Fatalf("rewrite = (%q, clean=%v), want (%q, true)", got, clean, want)
	}
	if got, _, _ := rewriteAll(r, "xy12"); got != "[long:*]" {
		t.Fatalf("rewrite(xy12) = %q", got)
	}
}

// TestReplacerOverlappingSelfMatches pins the step-by-one marking: an
// equal-priority pattern pair where the second occurrence of one
// overlaps the first's span must resolve as the sequential reference does.
func TestReplacerOverlappingSelfMatches(t *testing.T) {
	r := compileReplacer(mkLabels([2]string{"a", "xa"}, [2]string{"b", "aa"}))
	got, _, clean := rewriteAll(r, "xaaa")
	if want := "[a:*][b:*]"; got != want || !clean {
		t.Fatalf("rewrite(xaaa) = (%q, clean=%v), want %q", got, clean, want)
	}
}

func TestReplacerSameRawTwoAttrsPriority(t *testing.T) {
	// Two labels share a raw; the attr-lexicographic first claims every
	// occurrence, as sequential ReplaceAll did. If it is inactive, the
	// second takes over.
	r := compileReplacer(mkLabels([2]string{"beta", "v7"}, [2]string{"alpha", "v7"}))
	got, _, _ := rewriteAll(r, "v7")
	if got != "[alpha:*]" {
		t.Fatalf("priority winner = %q, want [alpha:*]", got)
	}
	onlyBeta := func(p int32) bool { return r.pats[p].attr == "beta" }
	got2, _, _ := r.rewrite("v7", onlyBeta, func(p int32) string { return "[" + r.pats[p].attr + ":*]" })
	if got2 != "[beta:*]" {
		t.Fatalf("fallback winner = %q, want [beta:*]", got2)
	}
}

func TestReplacerVerifyRedactsSurvivingRaw(t *testing.T) {
	// A replacement that embeds an active raw value (here: its own) must
	// fail verification: the caller sees clean=false and the original
	// value back, and redacts — never a partial leak. Same contract as
	// the sequential loop's post-ReplaceAll Contains sweep.
	r := compileReplacer(mkLabels([2]string{"a", "v1"}))
	got, changed, clean := rewriteAll2(r, "only v1 here", "xv1y")
	if clean || !changed || got != "only v1 here" {
		t.Fatalf("rewrite = (%q, %v, clean=%v), want original + changed + unclean", got, changed, clean)
	}
	// An *inactive* pattern surviving in the output is fine — it is not
	// protected for this viewer, and the reference loop never checked
	// labels it was not given either.
	r2 := compileReplacer(mkLabels([2]string{"a", "v1"}, [2]string{"b", "zz"}))
	onlyA := func(p int32) bool { return r2.pats[p].attr == "a" }
	got, _, clean = r2.rewrite("only v1 here", onlyA, func(int32) string { return "zz" })
	if !clean || got != "only zz here" {
		t.Fatalf("inactive-pattern output = (%q, clean=%v), want (\"only zz here\", true)", got, clean)
	}
}

func rewriteAll2(r *Replacer, s, repl string) (string, bool, bool) {
	return r.rewrite(s, func(int32) bool { return true }, func(int32) string { return repl })
}

func TestReplacerInactivePatternsUntouched(t *testing.T) {
	r := compileReplacer(mkLabels([2]string{"a", "v1"}, [2]string{"b", "v2"}))
	onlyA := func(p int32) bool { return r.pats[p].attr == "a" }
	got, changed, clean := r.rewrite("v1 and v2", onlyA, func(int32) string { return "[x]" })
	if got != "[x] and v2" || !changed || !clean {
		t.Fatalf("rewrite = (%q, %v, %v)", got, changed, clean)
	}
	got, changed, clean = r.rewrite("only v2", onlyA, func(int32) string { return "[x]" })
	if got != "only v2" || changed || !clean {
		t.Fatalf("no-active-match fast path = (%q, %v, %v)", got, changed, clean)
	}
}

func TestReplacerEmpty(t *testing.T) {
	r := compileReplacer(nil)
	if got, changed, clean := rewriteAll(r, "anything"); got != "anything" || changed || !clean {
		t.Fatalf("empty replacer rewrote: (%q, %v, %v)", got, changed, clean)
	}
	if r.Patterns() != 0 {
		t.Fatalf("Patterns = %d", r.Patterns())
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
