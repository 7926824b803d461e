package repo

// A shard holds one generation: the installed (policy, ladders) pair with
// everything derived from it. These tests pin what the object is for — a
// replaced generation is garbage, nothing else keeps it — and hold the one
// path Reaches now takes to the per-request derivation it replaced.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"provpriv/internal/graph"
	"provpriv/internal/privacy"
	"provpriv/internal/workflow"
	"provpriv/internal/workload"
)

// TestReplacedGenerationIsCollected: once an install has replaced a
// generation and the reads that took it have returned, nothing may still
// reach it — not the shard, not a fill made under it, and not the persistence
// bookkeeping, which remembers the generation a saved policy belongs to by
// its install seq for exactly this reason. The old generation gets a
// finalizer; it must run within a bounded number of collections after the
// install and a Save.
func TestReplacedGenerationIsCollected(t *testing.T) {
	r := seededRepo(t)
	dir := t.TempDir()
	if err := r.Save(dir); err != nil { // bind: Save now remembers what it wrote per shard
		t.Fatalf("Save: %v", err)
	}
	progID := itemByAttr(t, r, "prognosis")
	for _, user := range []string{"alice", "bob", "carol"} { // fill under it
		if _, err := r.Provenance(user, diseaseID, "E1", progID); err != nil {
			t.Fatalf("Provenance: %v", err)
		}
	}
	collected := make(chan struct{})
	func() { // its own frame, so no slot of this test's keeps the pointer alive
		old := r.shard(diseaseID).current()
		runtime.SetFinalizer(old, func(*generation) { close(collected) })
	}()
	if err := r.UpdatePolicy(diseaseID, privacy.NewPolicy(diseaseID)); err != nil {
		t.Fatalf("UpdatePolicy: %v", err)
	}
	if err := r.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond): // the finalizer runs on its own goroutine
		}
	}
	t.Fatal("the replaced generation is still reachable after an install, a Save and 100 collections")
}

// reachesPerRequest is Reaches as it was before the closure moved onto the
// access step, minus its full-view shortcut: expand the spec to the level's
// access view (which withdraws the composite of every pair hidden from the
// level), resolve both endpoints to what represents them there, and search
// the view's graph.
func reachesPerRequest(s *workflow.Spec, h *workflow.Hierarchy, pol *privacy.Policy, level privacy.Level, from, to string) (bool, error) {
	if mf, _ := h.Module(from); mf == nil {
		return false, ErrNotFound
	}
	if mt, _ := h.Module(to); mt == nil {
		return false, ErrNotFound
	}
	if from == to {
		return false, nil
	}
	access := pol.AccessView(h, level)
	v, err := workflow.ExpandIn(s, h, access)
	if err != nil {
		return false, err
	}
	repr := func(id string) (string, error) {
		if v.Module(id) != nil {
			return id, nil
		}
		_, in := h.Module(id)
		for _, w := range h.Chain(in.ID) {
			if !access.Contains(w) {
				return h.ViaModule(w), nil
			}
		}
		return "", fmt.Errorf("module %q not resolvable in view", id)
	}
	rf, err := repr(from)
	if err != nil {
		return false, err
	}
	rt, err := repr(to)
	if err != nil {
		return false, err
	}
	if rf == rt {
		return false, nil
	}
	g := v.Graph()
	return g.Reachable(g.Lookup(rf), g.Lookup(rt)), nil
}

// TestReachesOnePathAgreesWithPerRequestExpansion: over random specs under
// random policies, each with two pairs the full expansion connects hidden
// below owner (a drawn pair whose modules share no composite must be
// refused, and is drawn again), Reaches answers every ordered module pair —
// self pairs, composite endpoints, hidden pairs and pairs inside one
// collapsed composite included — at every level exactly as the per-request
// expansion and graph search do, refusals included, before and after a
// policy update.
func TestReachesOnePathAgreesWithPerRequestExpansion(t *testing.T) {
	r := New()
	for _, lvl := range allLevels {
		r.AddUser(privacy.User{Name: lvl.String(), Level: lvl})
	}
	rng := rand.New(rand.NewSource(41))
	var hidden, unhideable, composite, refused, reached, collapsed int
	check := func(stage string, s *workflow.Spec, pol *privacy.Policy) {
		t.Helper()
		h := r.shard(s.ID).hier
		var ids []string
		for _, wid := range s.WorkflowIDs() {
			for _, m := range s.Workflows[wid].Modules {
				ids = append(ids, m.ID)
				if m.Kind == workflow.Composite {
					composite++
				}
			}
		}
		for _, lvl := range allLevels {
			access := pol.AccessView(h, lvl)
			for _, from := range ids {
				for _, to := range ids {
					got, gerr := r.Reaches(lvl.String(), s.ID, from, to)
					want, werr := reachesPerRequest(s, h, pol, lvl, from, to)
					if got != want || (gerr == nil) != (werr == nil) {
						t.Fatalf("%s: %s at %v: Reaches(%s, %s) = %v, %v; per-request expansion answers %v, %v", stage, s.ID, lvl, from, to, got, gerr, want, werr)
					}
					_, wf := h.Module(from)
					switch {
					case gerr != nil:
						refused++
					case got:
						reached++
					case !access.Contains(wf.ID):
						collapsed++
					}
				}
			}
		}
	}
	hide := func(s *workflow.Spec, pol *privacy.Policy) *privacy.Policy {
		h, err := workflow.NewHierarchy(s)
		if err != nil {
			t.Fatal(err)
		}
		v, err := workflow.ExpandIn(s, h, workflow.FullPrefix(h))
		if err != nil {
			t.Fatal(err)
		}
		g := v.Graph()
		names := make([]string, g.N())
		for i := range names {
			names[i] = g.Name(graph.NodeID(i))
		}
		for n := 0; n < 2; {
			from, to := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
			if from == to || !g.Reachable(g.Lookup(from), g.Lookup(to)) {
				continue
			}
			_, wf := h.Module(from)
			_, wt := h.Module(to)
			cf, ct := h.Chain(wf.ID), h.Chain(wt.ID)
			shared := len(cf) > 1 && len(ct) > 1 && cf[1] == ct[1] // below the root
			pol.Structural = append(pol.Structural, privacy.HiddenPair{From: from, To: to, Level: privacy.Owner})
			if err := pol.Validate(s); shared != (err == nil) {
				t.Fatalf("%s: pair %s->%s sharing a composite %v: Validate = %v", s.ID, from, to, shared, err)
			}
			if !shared {
				pol.Structural = pol.Structural[:len(pol.Structural)-1]
				unhideable++
				continue
			}
			n++
			hidden++
		}
		return pol
	}
	for i := 0; i < 6; i++ {
		s, pol := rankedSpec(t, rng, int64(300+i), fmt.Sprintf("reach-%d", i))
		if err := r.AddSpec(s, hide(s, pol)); err != nil {
			t.Fatalf("AddSpec: %v", err)
		}
		check("as registered", s, pol)
		next, err := workload.RandomPolicy(s, int64(900+i))
		if err != nil {
			t.Fatalf("RandomPolicy: %v", err)
		}
		if err := r.UpdatePolicy(s.ID, hide(s, next)); err != nil {
			t.Fatalf("UpdatePolicy: %v", err)
		}
		check("after UpdatePolicy", s, next)
	}
	if hidden == 0 || unhideable == 0 || composite == 0 || refused == 0 || reached == 0 || collapsed == 0 {
		t.Fatalf("fixture checks too little: %d hidden pairs, %d unhideable pairs, %d composite modules, %d refusals, %d reachable pairs, %d pairs from inside a collapsed workflow",
			hidden, unhideable, composite, refused, reached, collapsed)
	}
}
