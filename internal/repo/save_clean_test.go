package repo

import (
	"fmt"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/workload"
)

// TestCleanSaveCostIsIndependentOfExecutions: a Save with nothing changed
// re-points the new manifest at every shard's saved state. Whether a shard
// is clean is decided from its seq under its read lock, before anything of
// it is captured, so such a save allocates as often over 1000 executions
// as over one.
func TestCleanSaveCostIsIndependentOfExecutions(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cleanSave := func(execs int) float64 {
		r := New()
		_, add := makeSynthSpec(t, 1, "s")
		add(r)
		s := r.Spec("s")
		for i := 0; i < execs; i++ {
			e, err := exec.NewRunner(s, nil).Run(fmt.Sprintf("E%d", i), workload.RandomInputs(s, int64(i)))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if err := r.AddExecution(e); err != nil {
				t.Fatalf("AddExecution: %v", err)
			}
		}
		dir := t.TempDir()
		if err := r.Save(dir); err != nil {
			t.Fatalf("Save: %v", err)
		}
		defer r.CloseStorage()
		return testing.AllocsPerRun(3, func() {
			if err := r.Save(dir); err != nil {
				t.Fatalf("Save: %v", err)
			}
		})
	}
	if one, many := cleanSave(1), cleanSave(1000); many > one {
		t.Fatalf("a clean save allocates %.0f times over 1000 executions, %.0f over one", many, one)
	}
}
