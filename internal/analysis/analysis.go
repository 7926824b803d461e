// Package analysis assembles provlint's analyzer suite: the
// mechanically enforced versions of the concurrency, metrics, privacy
// and protocol contracts this repository has already been burned by.
// Each analyzer's Doc names the invariant; the README's "Static
// analysis & invariants" table maps each one to the PR and bug that
// motivated it.
//
// cmd/provlint drives the suite over ./... in CI; TestProvlintCleanTree
// drives it in-process so a regression fails `go test ./...` too.
package analysis

import (
	"time"

	"provpriv/internal/analysis/cachekey"
	"provpriv/internal/analysis/ctxflow"
	"provpriv/internal/analysis/envelope"
	"provpriv/internal/analysis/lintkit"
	"provpriv/internal/analysis/lockorder"
	"provpriv/internal/analysis/monotonic"
	"provpriv/internal/analysis/unserved"
)

// Suite is every provlint analyzer, in report order.
var Suite = []*lintkit.Analyzer{
	lockorder.Analyzer,
	monotonic.Analyzer,
	ctxflow.Analyzer,
	cachekey.Analyzer,
	envelope.Analyzer,
	unserved.Analyzer,
}

// Timing is one analyzer's wall time over a package set.
type Timing struct {
	Check  string        `json:"check"`
	Wall   time.Duration `json:"-"`
	WallMS float64       `json:"wall_ms"`
}

// Result is one full suite run: surviving findings plus per-analyzer
// and load cost (what provlint -bench writes).
type Result struct {
	Findings []lintkit.Finding
	Packages int
	LoadWall time.Duration
	Timings  []Timing
}

// RunTree loads every package matching the patterns under moduleDir
// once and runs the suite over the load, timing each analyzer.
func RunTree(moduleDir string, patterns ...string) (*Result, error) {
	loader := lintkit.NewLoader()
	start := time.Now()
	pkgs, err := loader.LoadModule(moduleDir, patterns...)
	if err != nil {
		return nil, err
	}
	res := &Result{Packages: len(pkgs), LoadWall: time.Since(start)}
	res.Findings, err = lintkit.Run(pkgs, Suite, func(a *lintkit.Analyzer, wall time.Duration) {
		res.Timings = append(res.Timings, Timing{Check: a.Name, Wall: wall, WallMS: float64(wall.Nanoseconds()) / 1e6})
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
