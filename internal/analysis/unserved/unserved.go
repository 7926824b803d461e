// Package unserved reports every non-test function or method that no root
// reaches, with its length in lines (doc comment included), walking
// references over all loaded packages at once. The roots, and why:
//
//   - every main function: cmd/ and examples/ are the binaries (frozen
//     cmd/provload included), so the library is what they run. The
//     module's root package (the facade) is no root: an export of it is
//     reached only when an example or a command calls it;
//   - every init function and package-level var initializer: they run on
//     import;
//   - the exports of a package named *test, test support several
//     packages' tests share;
//   - dispatch the walk cannot see as a call: a method called through an
//     interface reaches that method on every module type satisfying it; an
//     interface declared outside the module (error, flag.Value,
//     sort.Interface, ...) that the walked code uses reaches its methods on
//     every module type the code uses that satisfies it; and a used module
//     type, or one its fields and elements hold, reaches the methods fmt,
//     encoding/json and errors look for by assertion (dispatched);
//   - a function whose doc comment ends in "//provlint:ignore unserved
//     <reason>", kept for the stated reason (a test oracle, test support,
//     or code a ROADMAP item owns), with everything only it reaches. The
//     directive suppresses its own finding, so once a root reaches the
//     function it suppresses nothing and the driver reports it stale
//     (ignore-unused).
//
// A function is keyed by (package path, receiver type name, name), not by
// *types.Func: the source importer type-checks a dependency apart from the
// package itself, so one function has an object per importer. Interface
// satisfaction is decided on method names and signatures printed with
// package paths for the same reason. Over a pattern narrower than the
// module, a function reached only from outside it is reported.
package unserved

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"

	"provpriv/internal/analysis/lintkit"
)

var Analyzer = &lintkit.Analyzer{
	Name: "unserved",
	Doc: "every non-test function is reached from a main, an initialiser, a *test export, " +
		"interface or stdlib dispatch, or a function kept by //provlint:ignore unserved <reason>",
	RunProgram: run,
}

// dispatched is what the standard library calls on a value's dynamic type
// after asserting it to an interface: method name → signature.
var dispatched = map[string]string{
	"Error":         "func() string",
	"String":        "func() string",
	"GoString":      "func() string",
	"Format":        "func(fmt.State, rune)",
	"MarshalJSON":   "func() ([]byte, error)",
	"UnmarshalJSON": "func([]byte) error",
	"MarshalText":   "func() ([]byte, error)",
	"UnmarshalText": "func([]byte) error",
	"LogValue":      "func() log/slog.Value",
	"Unwrap":        "func() error",
	"Is":            "func(error) bool",
	"As":            "func(any) bool",
}

const directive = "provlint:ignore unserved "

// fn is one declared function or method.
type fn struct {
	decl *ast.FuncDecl
	pkg  *lintkit.Package
	obj  *types.Func
	kept bool // carries the directive
}

// method is one entry of a method set: its signature, its key, and the
// path of the package declaring it ("" for error.Error).
type method struct{ sig, key, pkg string }

// iface is an interface declared outside the module: its method set and
// the names of the methods declared outside.
type iface struct {
	want  map[string]method
	names []string
}

// program is one reachability walk.
type program struct {
	funcs   map[string]*fn
	modules map[string]bool              // package paths loaded
	types   map[string]map[string]method // package-level named type → method set
	generic map[string]bool              // those with type parameters match by name
	used    map[string]map[string]method // the types use has met
	outside []iface                      // the outside interfaces use has met
	reached map[string]bool
	queue   []*fn
	seen    map[string]bool // types already used
}

func run(p *lintkit.Program) error {
	g := &program{funcs: map[string]*fn{}, modules: map[string]bool{}, types: map[string]map[string]method{},
		generic: map[string]bool{}, used: map[string]map[string]method{}, reached: map[string]bool{}, seen: map[string]bool{}}
	for _, pkg := range p.Packages {
		g.modules[pkg.ImportPath] = true
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if n, ok := scope.Lookup(name).Type().(*types.Named); ok && !types.IsInterface(n) && n.Obj().Name() == name {
				g.types[pkg.ImportPath+"."+name] = methodSet(types.NewPointer(n))
				g.generic[pkg.ImportPath+"."+name] = n.TypeParams().Len() > 0
			}
		}
	}
	var roots []string
	var inits []func() // initialisers, scanned once every function is known
	for _, pkg := range p.Packages {
		exportsAreRoots := strings.HasSuffix(pkg.Name, "test")
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.Name == "init" {
						inits = append(inits, func() { g.scan(pkg, d.Body) })
						continue
					}
					f := &fn{decl: d, pkg: pkg, obj: pkg.Info.Defs[d.Name].(*types.Func), kept: kept(pkg.Fset, d)}
					g.funcs[funcKey(f.obj)] = f
					if (d.Recv == nil && d.Name.Name == "main" && pkg.Name == "main") || (exportsAreRoots && ast.IsExported(d.Name.Name)) {
						roots = append(roots, funcKey(f.obj))
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						inits = append(inits, func() { g.scan(pkg, d) })
					}
				}
			}
		}
	}
	for _, scan := range inits {
		scan()
	}
	for _, k := range roots {
		g.reach(k)
	}
	g.drain()
	served := maps.Clone(g.reached)
	for k, f := range g.funcs {
		if f.kept {
			g.reach(k)
		}
	}
	g.drain()
	for k, f := range g.funcs {
		if g.reached[k] && (served[k] || !f.kept) {
			continue
		}
		from := f.decl.Pos()
		if f.decl.Doc != nil {
			from = f.decl.Doc.Pos()
		}
		lines, unit := p.Fset.Position(f.decl.End()).Line-p.Fset.Position(from).Line+1, "lines"
		if lines == 1 {
			unit = "line"
		}
		name := strings.Replace(f.obj.FullName(), f.pkg.ImportPath+".", f.pkg.Name+".", 1)
		p.Report(lintkit.Diagnostic{Pos: f.decl.Pos(), Message: fmt.Sprintf("%s is reached from no root (%d %s)", name, lines, unit)})
	}
	return nil
}

// kept reports whether d carries the directive on the line above it.
func kept(fset *token.FileSet, d *ast.FuncDecl) bool {
	if d.Doc == nil {
		return false
	}
	last := d.Doc.List[len(d.Doc.List)-1]
	text := strings.TrimPrefix(last.Text, "//")
	return strings.HasPrefix(text, directive) && strings.TrimSpace(text[len(directive):]) != "" &&
		fset.Position(last.Pos()).Line == fset.Position(d.Pos()).Line-1
}

// funcKey is (package path, receiver type name, name); "" for a function
// with no package (error.Error).
func funcKey(f *types.Func) string {
	f = f.Origin()
	if f.Pkg() == nil {
		return ""
	}
	var recvName string
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := types.Unalias(t).(*types.Named); ok {
			recvName = n.Obj().Name()
		}
		recvName += "."
	}
	return f.Pkg().Path() + "." + recvName + f.Name()
}

func methodSet(t types.Type) map[string]method {
	ms := types.NewMethodSet(t)
	out := make(map[string]method, ms.Len())
	for i := 0; i < ms.Len(); i++ {
		m := ms.At(i).Obj().(*types.Func)
		var pkg string
		if m.Pkg() != nil {
			pkg = m.Pkg().Path()
		}
		out[m.Name()] = method{sig: sigString(m.Type().(*types.Signature)), key: funcKey(m), pkg: pkg}
	}
	return out
}

func qualifier(p *types.Package) string { return p.Path() }

// sigString prints a signature with package paths and without parameter
// names, which an implementation need not share.
func sigString(sig *types.Signature) string {
	unnamed := func(t *types.Tuple) *types.Tuple {
		vars := make([]*types.Var, t.Len())
		for i := range vars {
			vars[i] = types.NewParam(token.NoPos, nil, "", t.At(i).Type())
		}
		return types.NewTuple(vars...)
	}
	return types.TypeString(types.NewSignatureType(nil, nil, nil, unnamed(sig.Params()), unnamed(sig.Results()), sig.Variadic()), qualifier)
}

func (g *program) reach(key string) {
	if f := g.funcs[key]; f != nil && !g.reached[key] {
		g.reached[key] = true
		g.queue = append(g.queue, f)
	}
}

func (g *program) drain() {
	for len(g.queue) > 0 {
		f := g.queue[len(g.queue)-1]
		g.queue = g.queue[:len(g.queue)-1]
		g.scan(f.pkg, f.decl)
	}
}

// scan walks one body or var declaration: it reaches every function the
// body names, and uses the type of every expression in it.
func (g *program) scan(pkg *lintkit.Package, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if f, ok := pkg.Info.Uses[id].(*types.Func); ok {
				if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					g.satisfiers(methodSet(recv.Type()), []string{f.Name()}, g.types)
				} else {
					g.reach(funcKey(f))
				}
			}
		}
		if e, ok := n.(ast.Expr); ok {
			g.use(pkg.Info.TypeOf(e))
		}
		return true
	})
}

// use records a type the walked code holds a value of, calls with, or
// builds: an interface declared outside the module among them, and a
// module type, each reach the other's methods (use pairs them); a module
// type also reaches its dispatched methods. A signature uses its
// parameters and results, and a type the types its fields and elements
// hold, because fmt and encoding/json walk them.
func (g *program) use(t types.Type) {
	if t == nil || g.seen["use "+types.TypeString(t, qualifier)] {
		return
	}
	g.seen["use "+types.TypeString(t, qualifier)] = true
	if _, isParam := t.(*types.TypeParam); !isParam && types.IsInterface(t) {
		want := methodSet(t)
		var foreign []string
		for name, m := range want {
			if !g.modules[m.pkg] {
				foreign = append(foreign, name)
			}
		}
		if len(foreign) > 0 {
			g.outside = append(g.outside, iface{want, foreign})
			g.satisfiers(want, foreign, g.used)
		}
		return
	}
	if n, ok := types.Unalias(t).(*types.Named); ok && n.Obj().Pkg() != nil && g.types[n.Obj().Pkg().Path()+"."+n.Obj().Name()] != nil {
		tk := n.Obj().Pkg().Path() + "." + n.Obj().Name()
		g.used[tk] = g.types[tk]
		for name, m := range g.types[tk] {
			if dispatched[name] == m.sig {
				g.reach(m.key)
			}
		}
		for _, o := range g.outside {
			g.satisfiers(o.want, o.names, map[string]map[string]method{tk: g.types[tk]})
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Signature:
		for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
			for i := 0; i < tup.Len(); i++ {
				g.use(tup.At(i).Type())
			}
		}
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			g.use(u.Field(i).Type())
		}
	case *types.Pointer:
		g.use(u.Elem())
	case *types.Slice:
		g.use(u.Elem())
	case *types.Array:
		g.use(u.Elem())
	case *types.Chan:
		g.use(u.Elem())
	case *types.Map:
		g.use(u.Key())
		g.use(u.Elem())
	}
}

// satisfiers reaches the named methods on every type of among whose
// method set satisfies want.
func (g *program) satisfiers(want map[string]method, names []string, among map[string]map[string]method) {
	for tk, ms := range among {
		satisfies := true
		for name, w := range want {
			m, ok := ms[name]
			satisfies = satisfies && ok && (m.sig == w.sig || g.generic[tk])
		}
		for _, name := range names {
			if satisfies {
				g.reach(ms[name].key)
			}
		}
	}
}
