package lintkit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Name       string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Loader parses and type-checks packages. One Loader shares a single
// FileSet and a single source importer across every package it loads,
// so each dependency (stdlib included — there is no export data in a
// hermetic source-only toolchain) is type-checked at most once per run.
type Loader struct {
	fset     *token.FileSet
	importer types.Importer
	// fixtures holds what LoadDir loaded, so a later fixture package can
	// import an earlier one the source importer cannot find.
	fixtures map[string]*types.Package
}

// Import resolves a fixture package LoadDir loaded, else the source.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p := l.fixtures[path]; p != nil {
		return p, nil
	}
	return l.importer.Import(path)
}

// NewLoader returns a Loader backed by the stdlib "source" importer,
// which resolves imports by type-checking their source — the only
// importer that works without precompiled export data or network
// access.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{fset: fset, importer: importer.ForCompiler(fset, "source", nil), fixtures: make(map[string]*types.Package)}
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// LoadFiles parses the named files as one package and type-checks them
// under the given import path.
func (l *Loader) LoadFiles(importPath, dir string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(l.fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files for %s", importPath)
	}
	info := newInfo()
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Name:       tpkg.Name(),
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// LoadDir loads every non-test .go file in dir as one package. Used by
// linttest to load analyzer fixtures: a fixture may import one loaded
// before it by its import path.
func (l *Loader) LoadDir(importPath, dir string) (*Package, error) {
	pkgs, err := parser.ParseDir(l.fset, dir, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, p := range pkgs {
		for name := range p.Files {
			// ParseDir keys by the joined path; LoadFiles re-joins.
			name = filepath.Base(name)
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			names = append(names, name)
		}
	}
	// ParseDir already filled the fset; re-parse by name for a stable
	// single-package file list.
	pkg, err := l.LoadFiles(importPath, dir, dedupeSorted(names))
	if err != nil {
		return nil, err
	}
	l.fixtures[importPath] = pkg.Types
	return pkg, nil
}

func dedupeSorted(in []string) []string {
	seen := make(map[string]bool, len(in))
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
}

// GoList enumerates the packages matching pattern (e.g. "./...") by
// shelling out to the go tool from moduleDir.
func GoList(moduleDir string, patterns ...string) ([]listedPackage, error) {
	args := append([]string{"list", "-json=Dir,ImportPath,Name,GoFiles"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = moduleDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []listedPackage
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// LoadModule loads every package in the module under moduleDir matching
// the patterns. Only non-test files are analyzed: provlint pins
// production invariants; tests exercise deliberate violations (negative
// metric deltas, raced locks) on purpose.
func (l *Loader) LoadModule(moduleDir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := GoList(moduleDir, patterns...)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, lp := range listed {
		if len(lp.GoFiles) == 0 {
			continue
		}
		pkg, err := l.LoadFiles(lp.ImportPath, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
