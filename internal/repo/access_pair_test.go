package repo

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"provpriv/internal/privacy"
	"provpriv/internal/search"
	"provpriv/internal/workflow"
)

// answer is what a search reports about one spec, in comparable form; the
// zero answer is "no hit".
type answer struct {
	prefix  string
	matches string
	zoomed  bool
}

func answerOf(res *search.Result) answer {
	return answer{prefix: fmt.Sprint(res.Prefix().IDs()), matches: fmt.Sprintf("%+v", res.Matches), zoomed: res.ZoomedOut}
}

// scanAnswer is the oracle: the scan of the spec under pol's module levels
// and the given access view, with no index and no shard.
func scanAnswer(s *workflow.Spec, q string, access workflow.Prefix, pol *privacy.Policy, l privacy.Level) answer {
	res, err := search.SearchWithAccess(s, search.ParseQuery(q), access, pol, l)
	if err != nil {
		return answer{}
	}
	return answerOf(res)
}

// TestSearchPairsPolicyWithItsAccessView: the access view is install-time
// state, read beside the policy it was computed from. A writer alternates
// two policies that differ in both halves — which modules a level may
// match and how far its access view reaches — while readers search at
// every level, and every answer must be the scan oracle's under policy A
// or under policy B: never one policy's module levels clipped to the
// other's access view. Each round is gated, not timed: the four readers
// park between the index read and the view pass (every search asks its
// context once per hit, and not earlier), the test counts them in, and one
// channel close releases them together with the writer, so the installs
// run against view passes already under way and against the free-running
// searches that follow. Run under -race, this is also what holds the
// shared Prefix maps to their read-only contract.
func TestSearchPairsPolicyWithItsAccessView(t *testing.T) {
	s := workflow.DiseaseSusceptibility()
	h, err := workflow.NewHierarchy(s)
	if err != nil {
		t.Fatal(err)
	}
	// A match inside a withdrawn workflow is reported as the composite that
	// stands for it, so each policy also hides a composite: which one a
	// narrow view may name is decided by the module-level half.
	polA := privacy.NewPolicy(s.ID) // wide views, M5 and composite M1 hidden
	polA.ViewGrants[privacy.Public] = []string{"W2", "W4"}
	polA.ViewGrants[privacy.Analyst] = []string{"W3"}
	polA.ModuleLevels["M5"] = privacy.Owner
	polA.ModuleLevels["M1"] = privacy.Analyst
	polB := privacy.NewPolicy(s.ID) // narrow views, M7 and composite M4 hidden
	polB.ViewGrants[privacy.Public] = []string{"W3"}
	polB.ViewGrants[privacy.Registered] = []string{"W2"}
	polB.ViewGrants[privacy.Owner] = []string{"W4"}
	polB.ModuleLevels["M7"] = privacy.Analyst
	polB.ModuleLevels["M4"] = privacy.Analyst
	pols := [2]*privacy.Policy{polA, polB}

	levels := []privacy.Level{privacy.Public, privacy.Registered, privacy.Analyst, privacy.Owner}
	queries := []string{"database", "query", "disorder", "database, disorder risks"}
	type key struct {
		q string
		l privacy.Level
	}
	want := make(map[key][2]answer)
	discriminating := 0
	for _, q := range queries {
		for _, l := range levels {
			accA, accB := polA.AccessView(h, l), polB.AccessView(h, l)
			pure := [2]answer{scanAnswer(s, q, accA, polA, l), scanAnswer(s, q, accB, polB, l)}
			want[key{q, l}] = pure
			// A mixed pair is only caught where it answers differently
			// from both pure pairs.
			mixed := [2]answer{scanAnswer(s, q, accB, polA, l), scanAnswer(s, q, accA, polB, l)}
			if mixed[0] != pure[0] && mixed[0] != pure[1] && mixed[1] != pure[0] && mixed[1] != pure[1] {
				discriminating++
			}
		}
	}
	if discriminating < len(queries) {
		t.Fatalf("only %d (query, level) pairs tell a mixed pair from a pure one: the fixture checks too little", discriminating)
	}

	r := New()
	if err := r.AddSpec(s, polA); err != nil {
		t.Fatal(err)
	}
	for _, l := range levels {
		r.AddUser(privacy.User{Name: l.String(), Level: l})
	}

	const rounds, flips = 40, 5 // an odd number of flips: the rounds alternate too
	installed := 0
	for round := 0; round < rounds; round++ {
		gate := make(chan struct{})
		ctxs := make([]*parkingCtx, len(levels))
		var wg sync.WaitGroup
		for i, l := range levels {
			ctxs[i] = parkAt(1)
			ctxs[i].release = gate
			wg.Add(1)
			go func(ctx *parkingCtx, l privacy.Level) {
				defer wg.Done()
				for n := 0; n < 3*len(queries); n++ {
					q := queries[(n+round)%len(queries)]
					hits, _, err := r.SearchPageCtx(ctx, l.String(), q, SearchOptions{Limit: 10})
					if err != nil {
						t.Errorf("level %v query %q: %v", l, q, err)
						return
					}
					var got answer
					if len(hits) > 0 {
						got = answerOf(hits[0].Result)
					}
					if w := want[key{q, l}]; len(hits) > 1 || (got != w[0] && got != w[1]) {
						t.Errorf("level %v query %q: served %+v (%d hits), which is neither the answer under policy A %+v nor under policy B %+v",
							l, q, got, len(hits), w[0], w[1])
						return
					}
				}
			}(ctxs[i], l)
		}
		wg.Add(1)
		go func(from int) {
			defer wg.Done()
			<-gate
			for k := 1; k <= flips; k++ {
				if err := r.UpdatePolicy(s.ID, pols[(from+k)%2]); err != nil {
					t.Errorf("UpdatePolicy: %v", err)
					return
				}
			}
		}(installed)
		for _, ctx := range ctxs {
			<-ctx.reached // parked: index read, no view decided yet
		}
		close(gate)
		wg.Wait()
		if t.Failed() {
			return
		}
		installed = (installed + flips) % 2
		if got := r.policy(s.ID); got != pols[installed] {
			t.Fatalf("round %d: policy %p installed, want %p", round, got, pols[installed])
		}
	}
}

// TestAccessViewStepsMatchPolicy: the step table install builds answers
// every level — below the lowest grant, between grants, far above the
// highest — exactly as Policy.AccessView does, and a level a wire-written
// policy puts far away costs one step, not one entry per level.
func TestAccessViewStepsMatchPolicy(t *testing.T) {
	s := workflow.DiseaseSusceptibility()
	pol := privacy.NewPolicy(s.ID)
	pol.ViewGrants[privacy.Registered] = []string{"W2"}
	pol.ViewGrants[privacy.Owner] = []string{"W4"}
	pol.ViewGrants[1<<40] = []string{"W3"}
	r := New()
	if err := r.AddSpec(s, pol); err != nil {
		t.Fatal(err)
	}
	sh := r.shard(s.ID)
	gen := sh.current()
	if gen.pol != pol || len(gen.steps) != 4 {
		t.Fatalf("policy %p with %d access steps for 3 grant levels, want %p with 4", gen.pol, len(gen.steps), pol)
	}
	for _, l := range []privacy.Level{-7, 0, 1, 2, 3, 4, 1<<40 - 1, 1 << 40, 1<<40 + 1} {
		st, want := gen.step(l), pol.AccessView(sh.hier, l)
		if !reflect.DeepEqual(st.view, want) || st.key != want.Key() || st.zoomed != (len(want) < sh.hier.Size()) {
			t.Errorf("level %d: access view %v keyed %s zoomed %v, want %v", l, st.view.IDs(), st.key, st.zoomed, want.IDs())
		}
	}
}

// TestAccessStepsChangeAtPairLevels: a hidden pair changes the access view
// at its own level, grant or no grant there, so install places a step
// boundary at every pair level: W4 (the pair M6 -> M8) returns at Analyst
// and W3 (M13 -> M11) at Owner, though both are granted to Public.
func TestAccessStepsChangeAtPairLevels(t *testing.T) {
	s := workflow.DiseaseSusceptibility()
	pol := privacy.NewPolicy(s.ID)
	pol.ViewGrants[privacy.Public] = []string{"W3", "W4"}
	pol.Structural = []privacy.HiddenPair{
		{From: "M6", To: "M8", Level: privacy.Analyst},
		{From: "M13", To: "M11", Level: privacy.Owner},
	}
	r := New()
	if err := r.AddSpec(s, pol); err != nil {
		t.Fatal(err)
	}
	sh := r.shard(s.ID)
	gen := sh.current()
	if len(gen.steps) != 4 {
		t.Fatalf("%d access steps for one grant level and two pair levels, want 4 (with the one below every level)", len(gen.steps))
	}
	want := map[privacy.Level]string{
		-1: "[W1]", privacy.Public: "[W1 W2]", privacy.Registered: "[W1 W2]",
		privacy.Analyst: "[W1 W2 W4]", privacy.Owner: "[W1 W2 W3 W4]", privacy.Owner + 1: "[W1 W2 W3 W4]",
	}
	for l, ids := range want {
		st := gen.step(l)
		if got := fmt.Sprint(st.view.IDs()); got != ids || !reflect.DeepEqual(st.view, pol.AccessView(sh.hier, l)) || st.zoomed != (l < privacy.Owner) {
			t.Errorf("level %d: access view %s zoomed %v, want %s", l, got, st.zoomed, ids)
		}
	}
}
