package query

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/jsonw"
	"provpriv/internal/privacy"
	"provpriv/internal/taint"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// provFixture is a seeded spec and policy, and the view plan of one run of
// the spec at a level — collapsed, prepared and blanked, as internal/repo
// keeps it per (shape, access view).
type provFixture struct {
	pol    *privacy.Policy
	level  privacy.Level
	plan   *PreparedExec
	shapes *exec.Shapes
	run    func(inputSeed int64) *exec.Execution
}

// newProvFixture builds the fixture. Every run's item ids are prefixed with
// idPrefix, and its values are spliced with val, so ids and values carry
// whatever bytes the caller chooses.
func newProvFixture(tb testing.TB, seed int64, level privacy.Level, execID, idPrefix, val string) *provFixture {
	tb.Helper()
	s, err := workload.RandomSpec(workload.SpecConfig{
		Seed: seed, ID: "prov-fz", Depth: 1 + int(uint64(seed)%3), Fanout: 2, Chain: 3, SkipProb: 0.3,
	})
	if err != nil {
		tb.Fatal(err)
	}
	pol, err := workload.RandomPolicy(s, seed)
	if err != nil {
		tb.Fatal(err)
	}
	h, err := workflow.NewHierarchy(s)
	if err != nil {
		tb.Fatal(err)
	}
	f := &provFixture{pol: pol, level: level, shapes: exec.NewShapes()}
	f.run = func(inputSeed int64) *exec.Execution {
		e, err := exec.NewRunner(s, nil).Run(execID, workload.RandomInputs(s, inputSeed))
		if err != nil {
			tb.Fatal(err)
		}
		return respliced(e, idPrefix, val)
	}
	first := f.run(seed)
	view, g, err := exec.CollapseIn(first, h, pol.AccessView(h, level))
	if err != nil {
		tb.Fatal(err)
	}
	if f.plan, err = PreparePlan(view, g, f.shapes.Intern(first).Shape()); err != nil {
		tb.Fatal(err)
	}
	view.Blank()
	return f
}

// respliced renames every item of e to idPrefix+id and splices val into
// its value at a position that varies by item.
func respliced(e *exec.Execution, idPrefix, val string) *exec.Execution {
	items := make(map[string]*exec.DataItem, len(e.Items))
	for n, id := range e.ItemIDs() {
		it := *e.Items[id]
		it.ID = idPrefix + id
		cut := 0
		if len(val) > 0 {
			cut = n % (len(val) + 1)
		}
		it.Value = exec.Value(val[:cut]) + it.Value + exec.Value(val[cut:])
		items[it.ID] = &it
	}
	edges := make([]exec.Edge, len(e.Edges))
	for i, ed := range e.Edges {
		edges[i] = exec.Edge{From: ed.From, To: ed.To}
		for _, id := range ed.Items {
			edges[i].Items = append(edges[i].Items, idPrefix+id)
		}
	}
	return &exec.Execution{ID: e.ID, SpecID: e.SpecID, Nodes: e.Nodes, Edges: edges, Items: items}
}

// served fills the plan with a run's values and masks them for the
// fixture's level, as a cold fill does; redact additionally marks every
// item whose bit is set redacted, so the slot's flag is covered whatever
// the policy protects.
func (f *provFixture) served(tb testing.TB, e *exec.Execution, redact uint64) Snapshot {
	tb.Helper()
	st := f.shapes.Intern(e)
	snap, err := f.plan.Fill(st, e.ID+"/view/masked@"+f.level.String())
	if err != nil {
		tb.Fatal(err)
	}
	taint.NewEngine(f.pol, nil).MaskInPlace(&snap.Vector, f.plan.Layout(), st, f.level)
	for n, id := range materialize(snap).ItemIDs() {
		if redact>>(uint(n)%64)&1 == 1 {
			j, _ := f.plan.Slot(id)
			snap.Redact(j)
		}
	}
	return snap
}

// materialize returns the execution view snap carries the values of: its
// plan's structure with snap's values in fresh items.
func materialize(snap Snapshot) *exec.Execution {
	return snap.Plan.Layout().Materialize(snap.Plan.Exec, snap.ID, &snap.Vector)
}

// referenceAnswer is the /provenance body as encoding/json writes it from
// exec.ProvenanceIn's sub-execution of the snapshot.
func referenceAnswer(tb testing.TB, snap Snapshot, specID, execID, item string) (*exec.Execution, []byte) {
	tb.Helper()
	ref, err := exec.ProvenanceIn(materialize(snap), snap.Plan.Graph(), item)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(map[string]any{
		"spec": specID, "exec": execID, "item": item, "provenance": ref,
	}); err != nil {
		tb.Fatal(err)
	}
	return ref, buf.Bytes()
}

// FuzzProvenanceEncode holds the provenance index and its encoder to the
// reference: over random specs, policies, levels (so access views), ids
// and values — HTML-special bytes, control bytes, U+2028/U+2029 and
// invalid UTF-8 among them — every item's compiled answer is byte for byte
// encoding/json's encoding of exec.ProvenanceIn over the same snapshot,
// and its materialized sub-execution equals that one. Two runs share the
// plan, so the second answers from runs the first built.
func FuzzProvenanceEncode(f *testing.F) {
	f.Add(int64(1), uint8(0), uint64(0), "plain", "E1", "spec", "")
	f.Add(int64(2), uint8(1), uint64(5), "<a&b>\u2028x\u2029\x00\x1f\b\f\n\r\t\"\\\x7f", "E<1>", "s&p", "i<")
	f.Add(int64(3), uint8(3), uint64(1<<63|3), "\xff\xfe bad \xe2\x82", "\xe2\x82", "\x7f", "\xe2")
	f.Add(int64(4), uint8(2), ^uint64(0), "é☃\U0001F600", "E/prov(", "\"", "~")
	f.Add(int64(5), uint8(0), uint64(2), "", "", "", "zz")
	f.Fuzz(func(t *testing.T, seed int64, lv uint8, redact uint64, val, execID, specID, idPrefix string) {
		if want, _ := json.Marshal(val); !bytes.Equal(jsonw.AppendString(nil, val), want) {
			t.Fatalf("jsonw.AppendString(%q) = %s, encoding/json writes %s", val, jsonw.AppendString(nil, val), want)
		}
		fx := newProvFixture(t, seed, privacy.Level(lv%4), execID, idPrefix, val)
		for n, inputSeed := range []int64{seed, seed + 1} {
			snap := fx.served(t, fx.run(inputSeed), redact>>n)
			ids := materialize(snap).ItemIDs()
			if len(ids) == 0 {
				t.Fatalf("level %d sees no item", lv%4)
			}
			for _, id := range ids {
				p, err := snap.Provenance(id)
				if err != nil {
					t.Fatal(err)
				}
				ref, want := referenceAnswer(t, snap, specID, execID, id)
				if got := p.AppendJSON(nil, specID, execID); !bytes.Equal(got, want) {
					t.Fatalf("run %d item %q:\ncompiled  %s\nreference %s", n, id, got, want)
				}
				if got := p.Execution(); !reflect.DeepEqual(got, ref) {
					t.Fatalf("run %d item %q: materialized %+v, reference %+v", n, id, got, ref)
				}
			}
		}
		if _, err := fx.plan.Snapshot().Provenance(idPrefix + "no-such-item"); err == nil {
			t.Fatal("an unknown item has a provenance")
		}
	})
}

// TestProvenanceConcurrentFirstReaders races first readers of one (plan,
// item) across two snapshots of the plan, so the index, the item's
// positions and the runs are each built under contention; -race checks the
// hand-over and every reader must still write the reference answer.
func TestProvenanceConcurrentFirstReaders(t *testing.T) {
	fx := newProvFixture(t, 7, privacy.Registered, "E7", "", "<v>")
	snaps := []Snapshot{fx.served(t, fx.run(7), 0), fx.served(t, fx.run(8), 0)}
	ids := materialize(snaps[0]).ItemIDs()
	item := ids[len(ids)-1]
	want := make([][]byte, len(snaps))
	for i, snap := range snaps {
		_, want[i] = referenceAnswer(t, snap, "spec", "E7", item)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	got := make([][]byte, 16)
	for r := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			p, err := snaps[r%2].Provenance(item)
			if err != nil {
				t.Error(err)
				return
			}
			got[r] = p.AppendJSON(nil, "spec", "E7")
		}()
	}
	close(start)
	wg.Wait()
	for r, b := range got {
		if !bytes.Equal(b, want[r%2]) {
			t.Fatalf("reader %d wrote\n%s\nwant\n%s", r, b, want[r%2])
		}
	}
	// A reader that wrote the other snapshot's values fails above only if
	// the two runs' answers differ.
	if bytes.Equal(want[0], want[1]) {
		t.Fatal("both snapshots answer alike: the fixture cannot tell them apart")
	}
}

// TestPlanIsPrepareGraphOverTheShape: a view plan is PrepareGraph of its
// view, every index and the whole provenance index alike, plus the shape it
// was collapsed from and each item slot's index in that shape. It fills
// only stored executions of that shape: one of another shape, or any fill
// of a prepared execution that is no plan, is refused rather than
// half-filled, as is a plan of a view holding an item the shape lacks.
func TestPlanIsPrepareGraphOverTheShape(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		fx := newProvFixture(t, seed, privacy.Level(seed%4), "E", "", "")
		plan := fx.plan
		ref, err := PrepareGraph(plan.Exec, plan.Graph())
		if err != nil {
			t.Fatal(err)
		}
		for _, pe := range []*PreparedExec{plan, ref} {
			for _, id := range pe.slots.IDs {
				p, err := pe.Snapshot().Provenance(id)
				if err != nil {
					t.Fatalf("seed %d: provenance of %s: %v", seed, id, err)
				}
				p.AppendJSON(nil, "S", "E")
			}
		}
		shape := plan.shape
		for j, id := range plan.slots.IDs {
			if i, ok := shape.Index(id); !ok || plan.slots.At[j] != int32(i) {
				t.Fatalf("seed %d: slot %d (%s) gathers from %d, the shape holds it at %d (%v)", seed, j, id, plan.slots.At[j], i, ok)
			}
		}
		stripped := *plan
		stripped.shape, stripped.slots.At = nil, nil
		if !reflect.DeepEqual(&stripped, ref) {
			t.Fatalf("seed %d: the plan prepares its view unlike PrepareGraph", seed)
		}

		if _, err := plan.Fill(fx.shapes.Intern(fx.run(seed+100)), "same"); err != nil {
			t.Fatalf("seed %d: fill of a run of the plan's shape: %v", seed, err)
		}
		other := fx.shapes.Intern(respliced(fx.run(seed+200), "x-", ""))
		if other.Shape() == shape {
			t.Fatalf("seed %d: fixture: the renamed run has the plan's shape", seed)
		}
		if s, err := plan.Fill(other, "other"); err == nil || s.Vals != nil {
			t.Fatalf("seed %d: fill of a run of another shape: %d values, err = %v", seed, len(s.Vals), err)
		}
		if s, err := ref.Fill(fx.shapes.Intern(fx.run(seed+300)), "unplanned"); err == nil || s.Vals != nil {
			t.Fatalf("seed %d: fill of a prepared execution that is no plan: %d values, err = %v", seed, len(s.Vals), err)
		}
		if _, err := PreparePlan(plan.Exec, plan.Graph(), other.Shape()); err == nil || !strings.Contains(err.Error(), plan.slots.IDs[0]) {
			t.Fatalf("seed %d: plan of a view whose items the shape lacks: err = %v, want one naming %s", seed, err, plan.slots.IDs[0])
		}
	}
}
