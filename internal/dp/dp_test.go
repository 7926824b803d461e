package dp

import (
	"math"
	"math/rand"
	"testing"

	"provpriv/internal/exec"
	"provpriv/internal/workflow"
)

func TestLaplaceStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 200000
	b := 2.0
	var sum, sumAbs float64
	for i := 0; i < n; i++ {
		x := Laplace(b, rng)
		sum += x
		sumAbs += math.Abs(x)
	}
	mean := sum / n
	meanAbs := sumAbs / n
	if math.Abs(mean) > 0.05 {
		t.Fatalf("mean = %v, want ≈0", mean)
	}
	// E|X| = b for Laplace(b).
	if math.Abs(meanAbs-b) > 0.05 {
		t.Fatalf("E|X| = %v, want ≈%v", meanAbs, b)
	}
}

func TestNewMechanismValidation(t *testing.T) {
	if _, err := NewMechanism(0, 1, 1); err == nil {
		t.Fatal("epsilon 0 accepted")
	}
	if _, err := NewMechanism(1, 0, 1); err == nil {
		t.Fatal("sensitivity 0 accepted")
	}
}

func TestMechanismDeterministicUnderSeed(t *testing.T) {
	m1, _ := NewMechanism(1, 1, 7)
	m2, _ := NewMechanism(1, 1, 7)
	for i := 0; i < 10; i++ {
		if m1.Noisy(5) != m2.Noisy(5) {
			t.Fatal("same seed, different noise")
		}
	}
}

func diseaseExec(t *testing.T) *exec.Execution {
	t.Helper()
	spec := workflow.DiseaseSusceptibility()
	r := exec.NewRunner(spec, nil)
	e, err := r.Run("E1", map[string]exec.Value{
		"snps": "rs1", "ethnicity": "eth1", "lifestyle": "active",
		"family_history": "fh1", "symptoms": "none",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return e
}

func TestCountQueries(t *testing.T) {
	e := diseaseExec(t)
	// Find the disorders item.
	var disID string
	for id, it := range e.Items {
		if it.Attr == "disorders" {
			disID = id
		}
	}
	size := ProvenanceSize(disID)(e)
	if size < 5 {
		t.Fatalf("ProvenanceSize = %v, want ≥5", size)
	}
	if got := ProvenanceSize("d999")(e); got != 0 {
		t.Fatalf("unknown item size = %v", got)
	}
}

func TestNoiseScalesInverselyWithEpsilon(t *testing.T) {
	e := diseaseExec(t)
	var disID string
	for id, it := range e.Items {
		if it.Attr == "disorders" {
			disID = id
		}
	}
	q := ProvenanceSize(disID)
	loose, err := MeasureReproducibility(q, e, 0.1, 400, 11)
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	tight, err := MeasureReproducibility(q, e, 10, 400, 11)
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if loose.MeanAbsErr <= tight.MeanAbsErr {
		t.Fatalf("ε=0.1 err %v not worse than ε=10 err %v", loose.MeanAbsErr, tight.MeanAbsErr)
	}
	// The paper's point: at strong privacy (small ε), answers are
	// irreproducible and nearly always wrong.
	if loose.WrongFrac < 0.8 {
		t.Fatalf("ε=0.1 WrongFrac = %v, want ≥0.8", loose.WrongFrac)
	}
	if loose.DisagreeFrac < 0.8 {
		t.Fatalf("ε=0.1 DisagreeFrac = %v", loose.DisagreeFrac)
	}
	// At weak privacy the answers stabilize.
	if tight.WrongFrac > 0.2 {
		t.Fatalf("ε=10 WrongFrac = %v, want ≤0.2", tight.WrongFrac)
	}
}

func TestMeasureReproducibilityValidation(t *testing.T) {
	e := diseaseExec(t)
	if _, err := MeasureReproducibility(ProvenanceSize("d0"), e, 1, 1, 1); err == nil {
		t.Fatal("trials=1 accepted")
	}
	if _, err := MeasureReproducibility(ProvenanceSize("d0"), e, -1, 10, 1); err == nil {
		t.Fatal("negative epsilon accepted")
	}
}
