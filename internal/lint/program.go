package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A FuncInfo pairs a declared function or method with its syntax and the
// package it lives in. Program indexes every function declared in the
// analyzed packages; FuncInfos are the nodes of the call graph.
type FuncInfo struct {
	Obj  *types.Func   // the canonical (Origin) object
	Decl *ast.FuncDecl // declaration syntax; Body may be nil (assembly stubs)
	File *ast.File     // the file holding Decl, for directive lookups
	Pkg  *Package      // the package Decl belongs to
}

// Name renders the function as it appears in diagnostics: package-qualified
// with its receiver, e.g. "perf.Grow" or "sim.(*Engine).advance".
func (f *FuncInfo) Name() string { return funcDisplayName(f.Obj) }

// funcDisplayName renders fn as pkg.Func, pkg.T.Method or pkg.(*T).Method.
func funcDisplayName(fn *types.Func) string {
	prefix := ""
	if p := fn.Pkg(); p != nil {
		prefix = p.Name() + "."
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return prefix + fn.Name()
	}
	t := sig.Recv().Type()
	ptr := false
	if p, isPtr := t.(*types.Pointer); isPtr {
		t, ptr = p.Elem(), true
	}
	name := "?"
	if n, isNamed := t.(*types.Named); isNamed {
		name = n.Obj().Name()
	}
	if ptr {
		return prefix + "(*" + name + ")." + fn.Name()
	}
	return prefix + name + "." + fn.Name()
}

// A Program is the unit of interprocedural analysis: the packages named on
// the command line (Targets, where diagnostics are reported) plus every
// module-internal package they transitively import, so call edges into
// shared helpers are always visible even when linting a subset. All
// packages come from one Loader, so files are parsed and type-checked
// exactly once per invocation regardless of how many analyzers run.
type Program struct {
	ModPath string
	fset    *token.FileSet
	Pkgs    []*Package // targets + transitive module imports, sorted by path
	Targets []*Package // packages diagnostics are reported for

	Funcs map[*types.Func]*FuncInfo // canonical object -> info
	funcs []*FuncInfo               // source order: by package path, then position

	named []*types.Named // named non-interface types, for dispatch matching

	graph     *Graph
	freqCtors map[*types.Func]bool
}

// BuildProgram assembles a Program from the target packages, pulling their
// transitive module-internal imports out of the loader's cache.
func BuildProgram(loader *Loader, targets []*Package) *Program {
	prog := &Program{
		ModPath: loader.ModPath,
		fset:    loader.Fset,
		Targets: targets,
		Funcs:   map[*types.Func]*FuncInfo{},
	}
	seen := map[string]*Package{}
	var walk func(p *Package)
	walk = func(p *Package) {
		if seen[p.Path] != nil {
			return
		}
		seen[p.Path] = p
		for _, imp := range p.Types.Imports() {
			path := imp.Path()
			if path != prog.ModPath && !strings.HasPrefix(path, prog.ModPath+"/") {
				continue
			}
			if ip, ok := loader.Cached(path); ok {
				walk(ip)
			}
		}
	}
	for _, t := range targets {
		walk(t)
	}
	for _, p := range seen {
		prog.Pkgs = append(prog.Pkgs, p)
	}
	sort.Slice(prog.Pkgs, func(i, j int) bool { return prog.Pkgs[i].Path < prog.Pkgs[j].Path })

	for _, p := range prog.Pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				info := &FuncInfo{Obj: origin(obj), Decl: fd, File: f, Pkg: p}
				prog.Funcs[info.Obj] = info
				prog.funcs = append(prog.funcs, info)
			}
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			prog.named = append(prog.named, named)
		}
	}
	return prog
}

// origin maps a possibly-instantiated function object to its generic origin
// so instantiations and their declaration share one call-graph node.
func origin(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

// FuncsInOrder returns every declared function in deterministic source
// order (package path, then file position).
func (p *Program) FuncsInOrder() []*FuncInfo { return p.funcs }

// Fset returns the program's shared file set.
func (p *Program) Fset() *token.FileSet { return p.fset }

// targetFiles returns the set of file names belonging to target packages
// (the scope diagnostics are reported for).
func (p *Program) targetFiles() map[string]bool {
	files := map[string]bool{}
	for _, pkg := range p.Targets {
		for _, f := range pkg.Files {
			files[pkg.Fset.Position(f.Pos()).Filename] = true
		}
	}
	return files
}

// FreqConstructors returns the set of functions whose frequency-named
// parameters are validated at a ladder boundary: freq.NewLadder and
// freq.NewLadderSteps themselves, plus (by fixpoint over the call graph)
// any function that forwards one of its own parameters directly into such
// a constructor. unitliteral exempts literal arguments to these functions —
// the constructor's min/max/step validation owns the unit discipline there.
func (p *Program) FreqConstructors() map[*types.Func]bool {
	if p.freqCtors != nil {
		return p.freqCtors
	}
	set := map[*types.Func]bool{}
	for _, f := range p.funcs {
		if strings.HasSuffix(f.Pkg.Path, "/freq") && strings.HasPrefix(f.Obj.Name(), "NewLadder") {
			set[f.Obj] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, f := range p.funcs {
			if set[f.Obj] || f.Decl.Body == nil {
				continue
			}
			params := map[types.Object]bool{}
			if f.Decl.Type.Params != nil {
				for _, field := range f.Decl.Type.Params.List {
					for _, name := range field.Names {
						if obj := f.Pkg.Info.Defs[name]; obj != nil {
							params[obj] = true
						}
					}
				}
			}
			if len(params) == 0 {
				continue
			}
			forwards := false
			ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
				if forwards {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := staticCallee(f.Pkg.Info, call)
				if callee == nil || !set[callee] {
					return true
				}
				for _, arg := range call.Args {
					if id, ok := ast.Unparen(arg).(*ast.Ident); ok && params[f.Pkg.Info.Uses[id]] {
						forwards = true
						return false
					}
				}
				return true
			})
			if forwards {
				set[f.Obj] = true
				changed = true
			}
		}
	}
	p.freqCtors = set
	return set
}

// staticCallee resolves a call expression to the called *types.Func when
// the callee is statically known: a package-level function, a qualified
// pkg.Func reference, or a method call on a concrete or interface value
// (for interfaces this is the interface method object, not an
// implementation). Returns nil for builtins, conversions, and calls of
// function values, whose targets are not statically known.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	// Unwrap explicit generic instantiation: F[T](x).
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		if id, ok := unwrapFunExpr(ix.X); ok {
			fun = id
		}
	case *ast.IndexListExpr:
		if id, ok := unwrapFunExpr(ix.X); ok {
			fun = id
		}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return nil // conversion, not a call
	}
	switch fn := fun.(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fn].(*types.Func); ok {
			return origin(f)
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fn.Sel].(*types.Func); ok {
			return origin(f)
		}
	}
	return nil
}

// unwrapFunExpr strips parentheses and reports whether e is an identifier
// or selector (the only instantiable function forms).
func unwrapFunExpr(e ast.Expr) (ast.Expr, bool) {
	e = ast.Unparen(e)
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		return e, true
	}
	return e, false
}
