// Package dp explores the paper's Section 5 observation about
// differential privacy: although DP is "the strongest notion of privacy
// known to date", no deterministic algorithm can guarantee it, and
// "provenance in scientific workflows is used to ensure reproducibility
// of experiments, and adding random noise to provenance information may
// render it useless."
//
// The package provides a Laplace mechanism over provenance count
// queries (e.g. "how many module executions contributed to item d") and
// a reproducibility-loss measurement that quantifies the paper's
// argument: the probability that two independent noisy answers to the
// same query disagree, and the expected error, as functions of ε.
package dp

import (
	"fmt"
	"math"
	"math/rand"

	"provpriv/internal/exec"
)

// Laplace draws one sample from the Laplace distribution with scale b,
// via inverse-CDF sampling from the provided source (deterministic under
// a seeded source; the randomness is the point).
func Laplace(b float64, rng *rand.Rand) float64 {
	u := rng.Float64() - 0.5
	if u >= 0 {
		return -b * math.Log(1-2*u)
	}
	return b * math.Log(1+2*u)
}

// Mechanism is an (ε, sensitivity)-Laplace mechanism.
type Mechanism struct {
	Epsilon     float64
	Sensitivity float64
	rng         *rand.Rand
}

// NewMechanism returns a mechanism; epsilon and sensitivity must be
// positive.
func NewMechanism(epsilon, sensitivity float64, seed int64) (*Mechanism, error) {
	if epsilon <= 0 {
		return nil, fmt.Errorf("dp: epsilon %v must be positive", epsilon)
	}
	if sensitivity <= 0 {
		return nil, fmt.Errorf("dp: sensitivity %v must be positive", sensitivity)
	}
	return &Mechanism{Epsilon: epsilon, Sensitivity: sensitivity, rng: rand.New(rand.NewSource(seed))}, nil
}

// Noisy returns trueValue + Laplace(sensitivity/ε) noise.
func (m *Mechanism) Noisy(trueValue float64) float64 {
	return trueValue + Laplace(m.Sensitivity/m.Epsilon, m.rng)
}

// CountQuery is a numeric query over an execution.
type CountQuery func(e *exec.Execution) float64

// ProvenanceSize returns the query "number of nodes in the provenance
// of item id".
func ProvenanceSize(itemID string) CountQuery {
	return func(e *exec.Execution) float64 {
		p, err := exec.Provenance(e, itemID)
		if err != nil {
			return 0
		}
		return float64(len(p.Nodes))
	}
}

// ReproReport quantifies reproducibility loss under the mechanism.
type ReproReport struct {
	Epsilon      float64
	Trials       int
	MeanAbsErr   float64 // E|noisy − true|
	DisagreeFrac float64 // fraction of trial pairs whose rounded answers differ
	WrongFrac    float64 // fraction of rounded answers ≠ true count
}

// MeasureReproducibility asks the query repeatedly and reports how
// irreproducible and wrong the integerized answers are. A scientist
// re-running a provenance count expects the same integer every time;
// WrongFrac ≈ 1 at small ε is the paper's "render it useless".
func MeasureReproducibility(q CountQuery, e *exec.Execution, epsilon float64, trials int, seed int64) (ReproReport, error) {
	if trials < 2 {
		return ReproReport{}, fmt.Errorf("dp: need at least 2 trials")
	}
	m, err := NewMechanism(epsilon, 1, seed)
	if err != nil {
		return ReproReport{}, err
	}
	truth := q(e)
	answers := make([]float64, trials)
	var sumErr float64
	wrong := 0
	for i := range answers {
		answers[i] = m.Noisy(truth)
		sumErr += math.Abs(answers[i] - truth)
		if math.Round(answers[i]) != truth {
			wrong++
		}
	}
	disagree := 0
	pairs := 0
	for i := 0; i < trials; i++ {
		for j := i + 1; j < trials; j++ {
			pairs++
			if math.Round(answers[i]) != math.Round(answers[j]) {
				disagree++
			}
		}
	}
	return ReproReport{
		Epsilon:      epsilon,
		Trials:       trials,
		MeanAbsErr:   sumErr / float64(trials),
		DisagreeFrac: float64(disagree) / float64(pairs),
		WrongFrac:    float64(wrong) / float64(trials),
	}, nil
}
