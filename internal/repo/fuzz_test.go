package repo

import (
	"fmt"
	"testing"
	"unicode/utf8"

	"provpriv/internal/exec"
	"provpriv/internal/privacy"
	"provpriv/internal/workload"
)

// FuzzPersistRoundTrip drives the Save/Load cycle of persist.go with
// fuzzed shapes: generated spec topologies, adversarial user names and
// levels, and varying execution counts. The invariant is full fidelity —
// a loaded repository must report the same specs, executions, users and
// index statistics as the one saved, and must answer a provenance
// request identically. Run with `go test -fuzz=FuzzPersistRoundTrip`.
func FuzzPersistRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(2), uint8(1), "alice", uint8(3))
	f.Add(int64(7), uint8(1), uint8(4), uint8(0), "", uint8(0))
	f.Add(int64(42), uint8(3), uint8(3), uint8(3), "u\x00ser", uint8(200))
	f.Add(int64(-9), uint8(2), uint8(2), uint8(3), "ünïcode né", uint8(1))
	f.Add(int64(1234), uint8(1), uint8(1), uint8(1), "a,b\"c\\d", uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, depth, chain, nExecs uint8, userName string, userLevel uint8) {
		// Clamp the generator knobs to valid, fast shapes.
		d := int(depth)%3 + 1
		ch := int(chain)%4 + 1
		fan := 1
		if fan > ch {
			fan = ch
		}
		if d == 1 {
			fan = 0
		}
		ne := int(nExecs) % 4

		r := New()
		s, err := workload.RandomSpec(workload.SpecConfig{
			Seed: seed, ID: "fz", Depth: d, Fanout: fan, Chain: ch, SkipProb: 0.3,
		})
		if err != nil {
			t.Fatalf("RandomSpec(depth=%d chain=%d): %v", d, ch, err)
		}
		pol := privacy.NewPolicy(s.ID)
		for _, wid := range s.WorkflowIDs() {
			for _, m := range s.Workflows[wid].Modules {
				if len(m.ID)%2 == 0 {
					pol.ModuleLevels[m.ID] = privacy.Level(int(userLevel) % 4)
				}
			}
		}
		if err := r.AddSpec(s, pol); err != nil {
			t.Fatalf("AddSpec: %v", err)
		}
		// Added last id first, so the execution the others are stored beside
		// sorts after them; the odd ones have a shape of their own, and one
		// item of each carries the fuzzed string, empty or redacted at times.
		for i := ne - 1; i >= 0; i-- {
			e, err := exec.NewRunner(s, nil).Run(fmt.Sprintf("E%d", i), workload.RandomInputs(s, seed+int64(i)))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if i%2 == 1 {
				e = reproc(e, e.ID)
			}
			it := e.Items[e.ItemIDs()[int(userLevel)%len(e.Items)]]
			it.Value, it.Redacted = exec.Value(userName), userLevel%2 == 1
			if err := r.AddExecution(e); err != nil {
				t.Fatalf("AddExecution: %v", err)
			}
		}
		r.AddUser(privacy.User{Name: userName, Level: privacy.Level(userLevel), Group: "g"})

		dir := t.TempDir()
		if err := r.Save(dir); err != nil {
			t.Fatalf("Save: %v", err)
		}
		r2, err := Load(dir)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}

		if got, want := fmt.Sprint(r2.SpecIDs()), fmt.Sprint(r.SpecIDs()); got != want {
			t.Fatalf("SpecIDs: %s != %s", got, want)
		}
		if got, want := fmt.Sprint(r2.ExecutionIDs("fz")), fmt.Sprint(r.ExecutionIDs("fz")); got != want {
			t.Fatalf("ExecutionIDs: %s != %s", got, want)
		}
		if got, want := content(r2.Stats()), content(r.Stats()); got != want {
			t.Fatalf("Stats: %+v != %+v", got, want)
		}
		sameStored(t, r, r2)
		storedRecords(t, dir)
		// JSON persistence coerces invalid UTF-8 to U+FFFD, so exact name
		// fidelity is only promised for valid UTF-8 names; the user count
		// (checked via Stats above) must survive regardless.
		if utf8.ValidString(userName) {
			u2, err := r2.User(userName)
			if err != nil {
				t.Fatalf("user %q lost in round trip: %v", userName, err)
			}
			if u2.Level != privacy.Level(userLevel) {
				t.Fatalf("user level: %v != %v", u2.Level, privacy.Level(userLevel))
			}
		}
		// Behavioral fidelity: provenance of the final output item must
		// agree between original and reloaded repositories.
		if ne > 0 && utf8.ValidString(userName) {
			e := r.execution("fz", "E0")
			var itemID string
			for id := range e.Items {
				itemID = id
				break
			}
			p1, err1 := r.Provenance(userName, "fz", "E0", itemID)
			p2, err2 := r2.Provenance(userName, "fz", "E0", itemID)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("provenance error mismatch: %v vs %v", err1, err2)
			}
			if err1 == nil && len(p1.Nodes) != len(p2.Nodes) {
				t.Fatalf("provenance size mismatch: %d vs %d nodes", len(p1.Nodes), len(p2.Nodes))
			}
		}
	})
}
