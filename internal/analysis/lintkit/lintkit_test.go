package lintkit_test

import (
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"provpriv/internal/analysis/lintkit"
)

// flagBad reports every call to a function named bad — a minimal
// analyzer for exercising the driver's suppression mechanics.
var flagBad = &lintkit.Analyzer{
	Name: "testcheck",
	Doc:  "flags calls to bad()",
	Run: func(pass *lintkit.Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "bad" {
						pass.Reportf(call.Pos(), "call to bad")
					}
				}
				return true
			})
		}
		return nil
	},
}

const ignoreFixture = `package p

func bad() {}

func f() {
	bad() // line 6: flagged
	bad() //provlint:ignore testcheck same-line suppression with a reason
	//provlint:ignore testcheck line-above suppression with a reason
	bad()
	//provlint:ignore all blanket suppression with a reason
	bad()
	//provlint:ignore testcheck
	bad() // line 13: ignore above is malformed (no reason), so still flagged
	//provlint:ignore othercheck reason names a different check, which did not run
	bad() // line 15: flagged
	//provlint:ignore testcheck stale: the line below is not flagged
	_ = 0
}
`

func TestIgnoreDirectives(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(ignoreFixture), 0o644); err != nil {
		t.Fatal(err)
	}
	loader := lintkit.NewLoader()
	pkg, err := loader.LoadDir("p", dir)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lintkit.Run([]*lintkit.Package{pkg}, []*lintkit.Analyzer{flagBad}, nil)
	if err != nil {
		t.Fatal(err)
	}

	type want struct {
		line  int
		check string
	}
	wants := []want{
		{6, "testcheck"},
		{12, "ignore-syntax"}, // the malformed directive itself
		{13, "testcheck"},     // ...which therefore suppresses nothing
		{15, "testcheck"},     // ignore for a different check
		{16, "ignore-unused"}, // suppresses nothing testcheck reports
	}
	if len(findings) != len(wants) {
		for _, f := range findings {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("got %d findings, want %d", len(findings), len(wants))
	}
	for i, w := range wants {
		f := findings[i]
		if f.Position.Line != w.line || f.Check != w.check {
			t.Errorf("finding %d = line %d check %s, want line %d check %s",
				i, f.Position.Line, f.Check, w.line, w.check)
		}
	}
}

// TestFindingString pins the vet-style file:line:col rendering CI greps.
func TestFindingString(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte("package p\n\nfunc bad() {}\n\nfunc g() { bad() }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	loader := lintkit.NewLoader()
	pkg, err := loader.LoadDir("p", dir)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lintkit.Run([]*lintkit.Package{pkg}, []*lintkit.Analyzer{flagBad}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1", len(findings))
	}
	s := findings[0].String()
	if !strings.HasSuffix(s, "p.go:5:12: call to bad (testcheck)") {
		t.Errorf("unexpected rendering %q", s)
	}
}
