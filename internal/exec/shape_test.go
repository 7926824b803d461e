package exec_test

// The property that licenses sharing a collapsed view among executions:
// same shape ⇒ same view, up to the values the view's items carry. External
// test package to use the workload generator without an import cycle.

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// clone returns a deep copy of e.
func clone(t *testing.T, e *exec.Execution) *exec.Execution {
	t.Helper()
	data, err := exec.MarshalExecution(e)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := exec.UnmarshalExecution(data)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// shapeEdits are single-field edits of an execution's structure, each
// applied to a deep copy. rng picks where.
var shapeEdits = []struct {
	name string
	edit func(e *exec.Execution, rng *rand.Rand)
}{
	{"node id", func(e *exec.Execution, rng *rand.Rand) { e.Nodes[rng.Intn(len(e.Nodes))].ID += "'" }},
	{"node module", func(e *exec.Execution, rng *rand.Rand) { e.Nodes[rng.Intn(len(e.Nodes))].Module += "'" }},
	{"node proc", func(e *exec.Execution, rng *rand.Rand) { e.Nodes[rng.Intn(len(e.Nodes))].Proc += "'" }},
	{"node kind", func(e *exec.Execution, rng *rand.Rand) { e.Nodes[rng.Intn(len(e.Nodes))].Kind++ }},
	{"node frame", func(e *exec.Execution, rng *rand.Rand) {
		for _, i := range rng.Perm(len(e.Nodes)) {
			if fs := e.Nodes[i].Frames; len(fs) > 0 {
				fs[rng.Intn(len(fs))].Sub += "'"
				return
			}
		}
	}},
	{"node frame dropped", func(e *exec.Execution, rng *rand.Rand) {
		for _, i := range rng.Perm(len(e.Nodes)) {
			if n := e.Nodes[i]; len(n.Frames) > 0 {
				n.Frames = n.Frames[:len(n.Frames)-1]
				return
			}
		}
	}},
	{"node order", func(e *exec.Execution, rng *rand.Rand) {
		i := rng.Intn(len(e.Nodes) - 1)
		e.Nodes[i], e.Nodes[i+1] = e.Nodes[i+1], e.Nodes[i]
	}},
	{"edge from", func(e *exec.Execution, rng *rand.Rand) { e.Edges[rng.Intn(len(e.Edges))].From += "'" }},
	{"edge to", func(e *exec.Execution, rng *rand.Rand) { e.Edges[rng.Intn(len(e.Edges))].To += "'" }},
	{"edge item", func(e *exec.Execution, rng *rand.Rand) {
		ed := &e.Edges[rng.Intn(len(e.Edges))]
		ed.Items[rng.Intn(len(ed.Items))] += "'"
	}},
	{"edge item added", func(e *exec.Execution, rng *rand.Rand) {
		ed := &e.Edges[rng.Intn(len(e.Edges))]
		ed.Items = append(ed.Items, e.ItemIDs()[rng.Intn(len(e.Items))])
	}},
	{"edge dropped", func(e *exec.Execution, rng *rand.Rand) { e.Edges = e.Edges[:len(e.Edges)-1] }},
	{"item attr", func(e *exec.Execution, rng *rand.Rand) { e.Items[e.ItemIDs()[rng.Intn(len(e.Items))]].Attr += "'" }},
	{"item producer", func(e *exec.Execution, rng *rand.Rand) { e.Items[e.ItemIDs()[rng.Intn(len(e.Items))]].Producer += "'" }},
	{"item id", func(e *exec.Execution, rng *rand.Rand) { e.Items[e.ItemIDs()[rng.Intn(len(e.Items))]].ID += "'" }},
	{"item rekeyed", func(e *exec.Execution, rng *rand.Rand) {
		id := e.ItemIDs()[rng.Intn(len(e.Items))]
		e.Items[id+"'"] = e.Items[id]
		delete(e.Items, id)
	}},
	{"item added", func(e *exec.Execution, rng *rand.Rand) {
		e.Items["extra"] = &exec.DataItem{ID: "extra", Attr: "x", Producer: e.Nodes[0].ID}
	}},
}

// TestSameShapeIsValueBlindAndNothingElse: two runs of one spec on
// different inputs have the same shape, as does any rewrite of values;
// every single-field edit of the structure has another. Shapes.Intern
// follows: one Shape for the former, a new one per edit — and what it hands
// back to store for the former is the caller's values over A's structure,
// which materialize as the caller's execution, field for field, with the
// caller's own left as it was.
func TestSameShapeIsValueBlindAndNothingElse(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, a := randomRun(t, seed)
		b, err := exec.NewRunner(s, nil).Run("B", workload.RandomInputs(s, seed+500))
		if err != nil {
			t.Fatal(err)
		}
		revalued := clone(t, a)
		for _, it := range revalued.Items {
			it.Value, it.Redacted = exec.Value(fmt.Sprint(rng.Int())), rng.Intn(2) == 0
		}
		shapes := exec.NewShapes()
		first := shapes.Intern(a)
		shape := first.Shape()
		if shape.Rep() != a || !reflect.DeepEqual(first.Execution(), a) {
			t.Fatalf("seed %d: the first execution of a shape is not its representative, or not what is stored", seed)
		}
		for _, same := range []*exec.Execution{b, revalued, clone(t, a)} {
			if !exec.SameShape(a, same) || !exec.SameShape(same, a) {
				t.Fatalf("seed %d: %s differs from A in values only, yet is not the same shape", seed, same.ID)
			}
			before := clone(t, same)
			stored := shapes.Intern(same)
			if stored.Shape() != shape || shape.Rep() != a {
				t.Fatalf("seed %d: %s was not interned under A's shape", seed, same.ID)
			}
			if got := stored.Execution(); !reflect.DeepEqual(got, same) || !reflect.DeepEqual(same, before) {
				t.Fatalf("seed %d: what is stored for %s is not what was passed in, or that changed", seed, same.ID)
			}
		}
		for _, ed := range shapeEdits {
			edited := clone(t, a)
			ed.edit(edited, rng)
			if reflect.DeepEqual(edited, a) {
				t.Fatalf("seed %d: edit %q changed nothing", seed, ed.name)
			}
			if exec.SameShape(a, edited) || exec.SameShape(edited, a) {
				t.Errorf("seed %d: after edit %q the execution still has A's shape", seed, ed.name)
			}
			if stored := shapes.Intern(edited); stored.Shape() == shape || stored.Shape().Rep() != edited {
				t.Errorf("seed %d: after edit %q the execution was interned under A's shape", seed, ed.name)
			}
		}
		if want := 1 + len(shapeEdits); shapes.Len() != want {
			t.Errorf("seed %d: %d shapes interned, want %d", seed, shapes.Len(), want)
		}
	}
}

// TestSameShapeViewIsTheOthersCollapse: under every prefix, the view
// collapsed from A, blanked and given B's stored values — each view item's
// from the slot the shape's index names — is exactly what collapsing B
// yields, so one collapse serves every execution of the shape, and the
// blank view in between holds none of A's values.
func TestSameShapeViewIsTheOthersCollapse(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		s, a := randomRun(t, seed)
		b, err := exec.NewRunner(s, nil).Run("B", workload.RandomInputs(s, seed+500))
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range b.Items { // redaction is a value too
			it.Redacted = len(it.Value)%3 == 0
		}
		h, err := workflow.NewHierarchy(s)
		if err != nil {
			t.Fatal(err)
		}
		shapes := exec.NewShapes()
		shape := shapes.Intern(a).Shape()
		stored := shapes.Intern(b)
		if stored.Shape() != shape {
			t.Fatalf("seed %d: B is not of A's shape", seed)
		}
		prefixes := workflow.Prefixes(h)
		if len(prefixes) > 40 {
			prefixes = prefixes[:40]
		}
		for _, p := range prefixes {
			plan, _, err := exec.CollapseIn(a, h, p)
			if err != nil {
				t.Fatalf("seed %d prefix %v: CollapseIn(A): %v", seed, p.IDs(), err)
			}
			plan.Blank()
			for id, it := range plan.Items {
				if it.Value != "" || it.Redacted {
					t.Fatalf("seed %d prefix %v: blank view keeps a value in %s", seed, p.IDs(), id)
				}
			}
			slots := exec.Layout{IDs: plan.ItemIDs()}
			vals, src := exec.Vector{Vals: make([]exec.Value, len(slots.IDs))}, stored.Vector()
			for j, id := range slots.IDs {
				i, ok := shape.Index(id)
				if !ok {
					t.Fatalf("seed %d prefix %v: view item %s is not the shape's", seed, p.IDs(), id)
				}
				vals.Vals[j] = src.Vals[i]
				if src.IsRedacted(i) {
					vals.Redact(j)
				}
			}
			got := slots.Materialize(plan, "B/view", &vals)
			want, _, err := exec.CollapseIn(b, h, p)
			if err != nil {
				t.Fatalf("seed %d prefix %v: CollapseIn(B): %v", seed, p.IDs(), err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d prefix %v: A's view with B's values is not B's view", seed, p.IDs())
			}
		}
		if _, ok := shape.Index("no-such-item"); ok {
			t.Fatalf("seed %d: the shape indexes an item it does not have", seed)
		}
	}
}

// TestValueRecordRoundTrip: an execution written as the values it carries
// beside its shape's first (MarshalValues) and read back over that one
// (UnmarshalValues) is the execution, field for field — redactions, empty
// values and values needing escapes included — under the shape, sharing its
// structure, with no structure in the record; and a record that names nothing
// stored, or does not fit the shape it names, is refused.
func TestValueRecordRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		s, a := randomRun(t, seed)
		b, err := exec.NewRunner(s, nil).Run("B", workload.RandomInputs(s, seed+500))
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range b.ItemIDs() {
			switch it := b.Items[id]; i % 4 {
			case 1:
				it.Value = ""
			case 2:
				it.Value += "\"\\\n <é>"
			case 3:
				it.Redacted = true
			}
		}
		shapes := exec.NewShapes()
		stored := map[string]*exec.Stored{a.ID: shapes.Intern(a)}
		shape := stored[a.ID].Shape()
		if shape.Rep() != a {
			t.Fatalf("seed %d: the shape's representative is not its first execution", seed)
		}
		data, err := shapes.Intern(b).MarshalValues()
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), a.Nodes[1].ID) || !strings.Contains(string(data), `"like":"`+a.ID+`"`) {
			t.Fatalf("seed %d: value record carries structure, or does not name A: %s", seed, data)
		}
		got, err := shapes.UnmarshalValues("B", data, stored)
		if err != nil {
			t.Fatalf("seed %d: UnmarshalValues: %v", seed, err)
		}
		if !reflect.DeepEqual(got.Execution(), b) || got.Shape() != shape || shapes.Len() != 1 {
			t.Fatalf("seed %d: B read back from its value record is not B under A's shape", seed)
		}
		n := len(a.Items)
		if _, err := shapes.UnmarshalValues("C", []byte(`{"like":"E","values":[`+strings.Repeat(`"",`, n-1)+`""]}`), stored); err != nil {
			t.Fatalf("seed %d: fixture: a well-formed record is refused: %v", seed, err)
		}
		for name, bad := range map[string]string{
			"not JSON":             `{"like":`,
			"names nothing stored": `{"like":"nope","values":[` + strings.Repeat(`"",`, n-1) + `""]}`,
			"vector too short":     `{"like":"E","values":[` + strings.Repeat(`"",`, n-2) + `""]}`,
			"vector too long":      `{"like":"E","values":[` + strings.Repeat(`"",`, n) + `""]}`,
			"redacted past end":    `{"like":"E","values":[` + strings.Repeat(`"",`, n-1) + `""],"redacted":[` + fmt.Sprint(n) + `]}`,
			"redacted negative":    `{"like":"E","values":[` + strings.Repeat(`"",`, n-1) + `""],"redacted":[-1]}`,
		} {
			if e, err := shapes.UnmarshalValues("C", []byte(bad), stored); err == nil {
				t.Fatalf("seed %d: value record (%s) accepted as %+v", seed, name, e)
			}
		}
	}
}

// TestStoredVectorsAreTheirOwn: UnmarshalValues decodes every record into
// one reused vector, and what it stores is a copy, so a record read right
// after another leaves the first execution reading its own values and
// redacted bits. Interning an execution of a known shape keeps its values
// and nothing else: it allocates the vector, the header and, when a value is
// redacted, the bits — the posted graph stays collectable.
func TestStoredVectorsAreTheirOwn(t *testing.T) {
	s, a := randomRun(t, 3)
	runs := make([]*exec.Execution, 2)
	for i := range runs {
		e, err := exec.NewRunner(s, nil).Run(fmt.Sprintf("B%d", i), workload.RandomInputs(s, int64(10+i)))
		if err != nil {
			t.Fatal(err)
		}
		for n, id := range e.ItemIDs() {
			e.Items[id].Redacted = (n+i)%3 == 0
		}
		runs[i] = e
	}
	shapes := exec.NewShapes()
	stored := map[string]*exec.Stored{a.ID: shapes.Intern(a)}
	var got []*exec.Stored
	for _, e := range runs {
		data, err := shapes.Intern(e).MarshalValues()
		if err != nil {
			t.Fatal(err)
		}
		st, err := shapes.UnmarshalValues(e.ID, data, stored)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, st)
	}
	for i, st := range got {
		if !reflect.DeepEqual(st.Execution(), runs[i]) {
			t.Fatalf("%s no longer reads its own values and redacted bits after %d more records", st.ID, len(got)-1-i)
		}
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, e := range []*exec.Execution{runs[0], a} {
		if n := testing.AllocsPerRun(100, func() { shapes.Intern(e) }); n > 3 {
			t.Fatalf("interning %s, of a known shape, allocates %.0f times; the vector, the header and the bits are 3", e.ID, n)
		}
	}
}

// BenchmarkIntern stores an execution of a shape the table already holds:
// what AddExecution does per posted run after the first.
func BenchmarkIntern(b *testing.B) {
	s, a := randomRun(b, 1)
	e, err := exec.NewRunner(s, nil).Run("B", workload.RandomInputs(s, 2))
	if err != nil {
		b.Fatal(err)
	}
	shapes := exec.NewShapes()
	shapes.Intern(a)
	b.ReportAllocs()
	for b.Loop() {
		shapes.Intern(e)
	}
}
