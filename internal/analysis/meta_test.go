package analysis_test

import (
	"bytes"
	"os/exec"
	"strings"
	"testing"

	"provpriv/internal/analysis"
)

// moduleRoot resolves the repository root through the go tool, so the
// meta-test works from any package directory or test binary cwd.
func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	return strings.TrimSpace(string(bytes.ToValidUTF8(out, nil)))
}

// TestProvlintCleanTree runs the full analyzer suite over the real
// repository in-process and requires zero findings — the same gate
// cmd/provlint enforces in CI, but wired into `go test ./...` so an
// invariant regression fails the ordinary test run too, not just the
// lint job.
func TestProvlintCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole tree; skipped in -short")
	}
	res, err := analysis.RunTree(moduleRoot(t))
	if err != nil {
		t.Fatalf("provlint run failed: %v", err)
	}
	if res.Packages == 0 {
		t.Fatal("loaded zero packages — pattern or loader regression")
	}
	for _, f := range res.Findings {
		t.Errorf("provlint: %s", f)
	}
	if len(res.Findings) > 0 {
		t.Log("fix the violation or add //provlint:ignore <check> <reason> with a justification")
	}
}
