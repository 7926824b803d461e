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
// follows: one Shape for the former, a new one per edit.
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
		shape := shapes.Intern(a)
		for _, same := range []*exec.Execution{b, revalued, clone(t, a)} {
			if !exec.SameShape(a, same) || !exec.SameShape(same, a) {
				t.Fatalf("seed %d: %s differs from A in values only, yet is not the same shape", seed, same.ID)
			}
			if shapes.Intern(same) != shape || shapes.Of(same) != shape {
				t.Fatalf("seed %d: %s was not interned under A's shape", seed, same.ID)
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
			if shapes.Intern(edited) == shape {
				t.Errorf("seed %d: after edit %q the execution was interned under A's shape", seed, ed.name)
			}
		}
		if want := 1 + len(shapeEdits); shapes.Len() != want {
			t.Errorf("seed %d: %d shapes interned, want %d", seed, shapes.Len(), want)
		}
		if shapes.Of(clone(t, a)) != nil {
			t.Errorf("seed %d: an execution never interned has a shape", seed)
		}
	}
}

// TestSameShapeViewIsTheOthersCollapse: under every prefix, the view
// collapsed from A, blanked and given B's values is exactly what collapsing
// B yields — so one collapse serves every execution of the shape — and the
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
			got, err := plan.WithValuesOf(b)
			if err != nil {
				t.Fatalf("seed %d prefix %v: WithValuesOf(B): %v", seed, p.IDs(), err)
			}
			want, _, err := exec.CollapseIn(b, h, p)
			if err != nil {
				t.Fatalf("seed %d prefix %v: CollapseIn(B): %v", seed, p.IDs(), err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d prefix %v: A's view with B's values is not B's view", seed, p.IDs())
			}
			// The instance owns its items: masking it in place must reach
			// neither the plan nor a second instance.
			for _, it := range got.Items {
				it.Value = "scribbled"
			}
			again, err := plan.WithValuesOf(b)
			if err != nil || !reflect.DeepEqual(again, want) {
				t.Fatalf("seed %d prefix %v: writing to one instance's items changed the next (%v)", seed, p.IDs(), err)
			}
		}
		// An execution of another shape is refused, not half-filled.
		plan, _, err := exec.CollapseIn(a, h, workflow.FullPrefix(h))
		if err != nil {
			t.Fatal(err)
		}
		other := clone(t, b)
		id := other.ItemIDs()[0]
		delete(other.Items, id)
		if _, err := plan.WithValuesOf(other); err == nil || !strings.Contains(err.Error(), id) {
			t.Fatalf("seed %d: WithValuesOf an execution lacking %s: err = %v", seed, id, err)
		}
	}
}
