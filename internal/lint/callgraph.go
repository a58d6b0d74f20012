package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// EdgeKind distinguishes how a call site resolves to its callee.
type EdgeKind uint8

const (
	// EdgeStatic is a direct call to a known function or concrete method.
	EdgeStatic EdgeKind = iota
	// EdgeDispatch is a call through an interface method, resolved
	// conservatively to every method in the program whose receiver type
	// implements the interface (implements-matching).
	EdgeDispatch
)

// An Edge is one resolved call from a caller's body.
type Edge struct {
	Callee *FuncInfo
	Kind   EdgeKind
	Via    string    // for EdgeDispatch, the interface method, e.g. "(policy.Policy).Decide"
	Pos    token.Pos // call site
}

// Graph is the program's call graph: static call and method edges plus
// conservative interface-dispatch edges. Calls of function values (fields,
// parameters, locals of function type) have no statically known target;
// they are recorded per caller in Unknown so analyzers can stay
// deliberately conservative about them rather than silently guessing.
type Graph struct {
	prog    *Program
	Out     map[*FuncInfo][]Edge
	Unknown map[*FuncInfo][]token.Pos
}

// CallGraph builds (once, memoized) the program's call graph. Edges are
// appended in source order, so every traversal that respects slice order is
// deterministic.
func (p *Program) CallGraph() *Graph {
	if p.graph != nil {
		return p.graph
	}
	g := &Graph{
		prog:    p,
		Out:     map[*FuncInfo][]Edge{},
		Unknown: map[*FuncInfo][]token.Pos{},
	}
	dispatchCache := map[*types.Func][]*FuncInfo{}
	for _, f := range p.funcs {
		if f.Decl.Body == nil {
			continue
		}
		info := f.Pkg.Info
		ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			g.addCall(f, info, call, dispatchCache)
			return true
		})
	}
	p.graph = g
	return g
}

// addCall resolves one call site into zero or more edges out of caller.
// Function literals invoked where they are written contribute their body's
// calls to the enclosing function (ast.Inspect walks into them), so a
// direct `func(){...}()` needs no edge of its own.
func (g *Graph) addCall(caller *FuncInfo, info *types.Info, call *ast.CallExpr, dispatchCache map[*types.Func][]*FuncInfo) {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		if e, ok := unwrapFunExpr(ix.X); ok {
			fun = e
		}
	case *ast.IndexListExpr:
		if e, ok := unwrapFunExpr(ix.X); ok {
			fun = e
		}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	switch fn := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[fn].(type) {
		case *types.Func:
			g.addStatic(caller, obj, call.Pos())
		case *types.Builtin, *types.TypeName, nil:
			// builtins allocate or convert; no user code runs
		default:
			g.addUnknown(caller, call.Pos()) // function-valued variable
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok && sel.Kind() == types.MethodVal {
			m, ok := sel.Obj().(*types.Func)
			if !ok {
				g.addUnknown(caller, call.Pos())
				return
			}
			if types.IsInterface(sel.Recv()) {
				g.addDispatch(caller, sel.Recv(), m, call.Pos(), dispatchCache)
				return
			}
			g.addStatic(caller, m, call.Pos())
			return
		}
		// Qualified reference: pkg.Func, pkg.Var, or pkg.Type (conversion).
		switch obj := info.Uses[fn.Sel].(type) {
		case *types.Func:
			g.addStatic(caller, obj, call.Pos())
		case *types.TypeName, nil:
		default:
			g.addUnknown(caller, call.Pos()) // pkg-level function variable, struct field
		}
	case *ast.FuncLit:
		// Direct invocation of a literal: its body is part of the caller.
	default:
		g.addUnknown(caller, call.Pos()) // call of a call's result, map/slice element, ...
	}
}

func (g *Graph) addStatic(caller *FuncInfo, callee *types.Func, pos token.Pos) {
	if target, ok := g.prog.Funcs[origin(callee)]; ok {
		g.Out[caller] = append(g.Out[caller], Edge{Callee: target, Kind: EdgeStatic, Pos: pos})
	}
}

func (g *Graph) addUnknown(caller *FuncInfo, pos token.Pos) {
	g.Unknown[caller] = append(g.Unknown[caller], pos)
}

// addDispatch adds one edge per program method implementing the called
// interface method. Candidates come from the program's named-type index in
// deterministic order; pointer method sets are used so both value and
// pointer receivers match.
func (g *Graph) addDispatch(caller *FuncInfo, recv types.Type, m *types.Func, pos token.Pos, cache map[*types.Func][]*FuncInfo) {
	key := origin(m)
	targets, ok := cache[key]
	if !ok {
		iface, isIface := recv.Underlying().(*types.Interface)
		if !isIface {
			return
		}
		for _, named := range g.prog.named {
			if !types.Implements(types.NewPointer(named), iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, m.Pkg(), m.Name())
			impl, isFunc := obj.(*types.Func)
			if !isFunc {
				continue
			}
			if target, inProg := g.prog.Funcs[origin(impl)]; inProg {
				targets = append(targets, target)
			}
		}
		cache[key] = targets
	}
	via := "(" + ifaceDisplayName(recv, m) + ")." + m.Name()
	for _, t := range targets {
		g.Out[caller] = append(g.Out[caller], Edge{Callee: t, Kind: EdgeDispatch, Via: via, Pos: pos})
	}
}

// ifaceDisplayName names the dispatching interface for diagnostics:
// "policy.Policy" for named interfaces, "interface" for anonymous ones.
func ifaceDisplayName(recv types.Type, m *types.Func) string {
	if named, ok := recv.(*types.Named); ok {
		name := named.Obj().Name()
		if p := named.Obj().Pkg(); p != nil {
			return p.Name() + "." + name
		}
		return name
	}
	if p := m.Pkg(); p != nil {
		return p.Name() + ".interface"
	}
	return "interface"
}

// A Reach is the result of a reachability sweep: every function reachable
// from the root set, with the first-discovered (breadth-first, so shortest)
// call chain back to a root.
type Reach struct {
	parent map[*FuncInfo]*FuncInfo
	via    map[*FuncInfo]Edge
	order  []*FuncInfo // BFS discovery order, roots first
}

// ReachableFrom runs a breadth-first sweep from roots. Roots must already
// be in deterministic order; edge slices are in source order, so discovery
// order — and therefore every reported chain — is reproducible.
func (g *Graph) ReachableFrom(roots []*FuncInfo) *Reach {
	r := &Reach{parent: map[*FuncInfo]*FuncInfo{}, via: map[*FuncInfo]Edge{}}
	queue := make([]*FuncInfo, 0, len(roots))
	for _, root := range roots {
		if _, ok := r.parent[root]; ok {
			continue
		}
		r.parent[root] = nil
		r.order = append(r.order, root)
		queue = append(queue, root)
	}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		for _, e := range g.Out[f] {
			if _, ok := r.parent[e.Callee]; ok {
				continue
			}
			r.parent[e.Callee] = f
			r.via[e.Callee] = e
			r.order = append(r.order, e.Callee)
			queue = append(queue, e.Callee)
		}
	}
	return r
}

// Contains reports whether f was reached.
func (r *Reach) Contains(f *FuncInfo) bool {
	_, ok := r.parent[f]
	return ok
}

// Order returns every reached function in BFS discovery order.
func (r *Reach) Order() []*FuncInfo { return r.order }

// Chain renders the shortest discovered call chain from a root to f, e.g.
// "sim.(*Engine).advance → perf.(*Solver).SolveTable → perf.Grow".
// Interface-dispatch hops name the interface method they pass through.
func (r *Reach) Chain(f *FuncInfo) string {
	var parts []string
	for cur := f; cur != nil; cur = r.parent[cur] {
		name := cur.Name()
		if e, ok := r.via[cur]; ok && e.Kind == EdgeDispatch {
			name = e.Via + " → " + name
		}
		parts = append(parts, name)
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, " → ")
}

// Root returns the root of f's discovered chain.
func (r *Reach) Root(f *FuncInfo) *FuncInfo {
	cur := f
	for r.parent[cur] != nil {
		cur = r.parent[cur]
	}
	return cur
}
