// Package lintkit is a minimal, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis surface that provlint's analyzers
// are written against. The build environment for this module is
// hermetic (stdlib only), so instead of importing x/tools we mirror the
// small slice of its API the analyzers need: an Analyzer value with a
// Run function, a Pass carrying the type-checked package, and a
// Diagnostic report sink. Analyzers written here are deliberately
// source-compatible with go/analysis in shape, so a future PR that
// gains the real dependency can swap the import and delete this
// package without rewriting a check.
//
// The driver adds one repo-specific convention on top: the escape
// hatch comment
//
//	//provlint:ignore <check> <reason>
//
// placed on, or on the line directly above, a flagged line suppresses
// diagnostics from the named check ("all" suppresses every check). The
// reason is mandatory; an ignore without one is itself reported, and
// so is one that suppresses nothing, so suppressions stay auditable.
package lintkit

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Analyzer describes one invariant check. It mirrors
// golang.org/x/tools/go/analysis.Analyzer (Name, Doc, Run) minus the
// dependency-graph machinery provlint does not need.
type Analyzer struct {
	// Name is the check's identifier, used in diagnostics and in
	// //provlint:ignore comments. Lower-case, no spaces.
	Name string

	// Doc is a one-paragraph description: the invariant, and the bug
	// that motivated pinning it.
	Doc string

	// Run executes the check against one package and reports findings
	// via pass.Report. Nil for a whole-program check.
	Run func(pass *Pass) error

	// RunProgram, when set, executes the check once over every loaded
	// package together — for invariants no single package decides,
	// such as what a binary reaches. Its findings go through the same
	// suppression as Run's.
	RunProgram func(prog *Program) error
}

// Program carries every loaded package, which share one file set,
// through one whole-program analyzer; Report takes a diagnostic at any
// position in any of them.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package
	Report   func(Diagnostic)
}

// Pass carries one type-checked package through one analyzer, mirroring
// go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report records a diagnostic against this pass's package.
	Report func(Diagnostic)
}

// Reportf is the printf-style convenience over Report.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is a resolved diagnostic: position translated through the
// file set and stamped with the analyzer that produced it. This is the
// unit cmd/provlint prints and the meta-test asserts is absent.
type Finding struct {
	Check    string
	Position token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Position, f.Message, f.Check)
}

// ignoreDirective is one parsed //provlint:ignore comment.
type ignoreDirective struct {
	check  string // analyzer name or "all"
	reason string // empty = malformed
	pos    token.Position
	used   bool // suppressed at least one diagnostic
}

const ignorePrefix = "provlint:ignore"

// parseIgnores scans a file's comments for provlint:ignore directives.
func parseIgnores(fset *token.FileSet, file *ast.File) []*ignoreDirective {
	var out []*ignoreDirective
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, ignorePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
			d := &ignoreDirective{pos: fset.Position(c.Pos())}
			if rest != "" {
				parts := strings.SplitN(rest, " ", 2)
				d.check = parts[0]
				if len(parts) == 2 {
					d.reason = strings.TrimSpace(parts[1])
				}
			}
			out = append(out, d)
		}
	}
	return out
}

// Run executes every analyzer over every package, resolves positions,
// applies //provlint:ignore suppression and returns the surviving
// findings sorted by position. Two pseudo-checks keep suppressions
// auditable: a malformed ignore (no check name or no reason) is an
// "ignore-syntax" finding, and a well-formed one that suppressed
// nothing is an "ignore-unused" finding — reported only when the
// check it names ran, so a narrower run never calls a directive stale
// (and never for "all", which no run can tell is stale for every
// check). timed, when non-nil, is
// called with each analyzer's wall time across every package.
func Run(pkgs []*Package, analyzers []*Analyzer, timed func(a *Analyzer, wall time.Duration)) ([]Finding, error) {
	var findings []Finding
	// "file:line" -> the well-formed directives written there.
	directives := make(map[string][]*ignoreDirective)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range parseIgnores(pkg.Fset, file) {
				if d.check == "" || d.reason == "" {
					findings = append(findings, Finding{
						Check:    "ignore-syntax",
						Position: d.pos,
						Message:  "malformed provlint:ignore: want //provlint:ignore <check> <reason>",
					})
					continue
				}
				key := fmt.Sprintf("%q:%d", d.pos.Filename, d.pos.Line)
				directives[key] = append(directives[key], d)
			}
		}
	}
	report := func(check string, pos token.Position, msg string) {
		// An ignore on the flagged line, or on the line directly
		// above it, suppresses the diagnostic.
		suppressed := false
		for _, line := range []int{pos.Line, pos.Line - 1} {
			for _, d := range directives[fmt.Sprintf("%q:%d", pos.Filename, line)] {
				if d.check == check || d.check == "all" {
					d.used, suppressed = true, true
				}
			}
		}
		if !suppressed {
			findings = append(findings, Finding{Check: check, Position: pos, Message: msg})
		}
	}
	ran := make(map[string]bool)
	for _, a := range analyzers {
		ran[a.Name] = true
		t0 := time.Now()
		if a.Run != nil {
			for _, pkg := range pkgs {
				pass := &Pass{
					Analyzer:  a,
					Fset:      pkg.Fset,
					Files:     pkg.Files,
					Pkg:       pkg.Types,
					TypesInfo: pkg.Info,
					Report:    func(d Diagnostic) { report(a.Name, pkg.Fset.Position(d.Pos), d.Message) },
				}
				if err := a.Run(pass); err != nil {
					return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.ImportPath, err)
				}
			}
		}
		if a.RunProgram != nil && len(pkgs) > 0 {
			fset := pkgs[0].Fset
			prog := &Program{
				Fset:     fset,
				Packages: pkgs,
				Report:   func(d Diagnostic) { report(a.Name, fset.Position(d.Pos), d.Message) },
			}
			if err := a.RunProgram(prog); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
		}
		if timed != nil {
			timed(a, time.Since(t0))
		}
	}
	for _, ds := range directives {
		for _, d := range ds {
			if !d.used && ran[d.check] {
				findings = append(findings, Finding{
					Check:    "ignore-unused",
					Position: d.pos,
					Message:  fmt.Sprintf("provlint:ignore %s suppresses nothing; delete it", d.check),
				})
			}
		}
	}
	SortFindings(findings)
	return findings, nil
}

// SortFindings orders findings by position then check name.
func SortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Position, findings[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return findings[i].Check < findings[j].Check
	})
}

// WalkStack walks every file's AST invoking fn with each node and the
// stack of its ancestors (outermost first, not including the node
// itself). Analyzers use it where go/analysis code would reach for
// inspector.WithStack.
func WalkStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node)) {
	for _, f := range files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			fn(n, stack)
			stack = append(stack, n)
			return true
		})
	}
}
