// Package linttest is the fixture harness for provlint analyzers,
// mirroring golang.org/x/tools/go/analysis/analysistest: fixture
// packages live under testdata/src/<pkg>, and lines that should be
// flagged carry a trailing
//
//	// want "regexp"
//
// comment (several quoted regexps on one line expect several
// diagnostics). The harness type-checks the fixture, runs the analyzer
// through the real driver — so //provlint:ignore suppression behaves
// exactly as in cmd/provlint — and fails the test on any missing or
// unexpected diagnostic.
package linttest

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"provpriv/internal/analysis/lintkit"
)

var wantRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// Run loads testdata/src/<pkg> for each pkg, relative to the calling
// test's package directory, and checks the analyzer's diagnostics
// against the fixtures' want comments. Several packages make one
// program, loaded in the order given, so each may import those before
// it by their path under testdata/src.
func Run(t *testing.T, a *lintkit.Analyzer, pkgs ...string) {
	t.Helper()
	loader := lintkit.NewLoader()
	var loaded []*lintkit.Package
	for _, pkg := range pkgs {
		dir := filepath.Join("testdata", "src", pkg)
		p, err := loader.LoadDir(pkg, dir)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", dir, err)
		}
		loaded = append(loaded, p)
	}
	findings, err := lintkit.Run(loaded, []*lintkit.Analyzer{a}, nil)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	// file:line -> expectations parsed from want comments.
	wants := make(map[string][]*expectation)
	for _, p := range loaded {
		for _, f := range p.Files {
			collectWants(t, p, f, wants)
		}
	}

	for _, fd := range findings {
		key := fmt.Sprintf("%q:%d", fd.Position.Filename, fd.Position.Line)
		exps := wants[key]
		ok := false
		for _, e := range exps {
			if !e.matched && e.re.MatchString(fd.Message) {
				e.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic: %s (%s)", key, fd.Message, fd.Check)
		}
	}
	for key, exps := range wants {
		for _, e := range exps {
			if !e.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, e.re)
			}
		}
	}
}

func collectWants(t *testing.T, p *lintkit.Package, f *ast.File, wants map[string][]*expectation) {
	t.Helper()
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, "want ") {
				continue
			}
			pos := p.Fset.Position(c.Pos())
			key := fmt.Sprintf("%q:%d", pos.Filename, pos.Line)
			for _, m := range wantRE.FindAllStringSubmatch(text, -1) {
				// Unquote as a Go string first (analysistest semantics):
				// \\( in the comment is the regexp \( once unquoted.
				pat, err := strconv.Unquote(m[0])
				if err != nil {
					t.Fatalf("%s: bad want literal %s: %v", key, m[0], err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", key, pat, err)
				}
				wants[key] = append(wants[key], &expectation{re: re})
			}
		}
	}
}
