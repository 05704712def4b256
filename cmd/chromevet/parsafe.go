package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file holds the parallel-safety analyzer layer: globalmut (no
// package-level mutable state written after init), aliasshare (no exported
// core-package API retaining caller-provided mutable objects), and concprim
// (no concurrency primitives inside the core simulator packages). Together
// they certify that simulator instances share no mutable state, which is
// what lets internal/experiments fan independent (scheme, workload) cells
// out across a worker pool while staying byte-identical to a sequential
// run.

// ---------------------------------------------------------------- globalmut

// analyzerGlobalMut finds package-level mutable state written after init
// time. Writes inside init functions — or inside helpers reachable only
// from package initialization, like a write-once registry's register — are
// allowed; any write reachable from an exported entry point means two
// concurrently-running simulator instances could stomp on shared state.
func analyzerGlobalMut() *Analyzer {
	return &Analyzer{
		Name:  "globalmut",
		Doc:   "package-level state written after init time",
		Scope: ScopeInternal,
		Run:   runGlobalMut,
	}
}

func runGlobalMut(pass *Pass) []Finding {
	g := buildCallGraph(pass.P)
	initReach := g.reachable(g.initRoots())
	entryReach := g.reachable(g.entryRoots())

	isInit := func(fn *types.Func) bool {
		return fn.Name() == "init" && fn.Type().(*types.Signature).Recv() == nil
	}

	var out []Finding
	for _, fn := range g.funcs() {
		decl := g.decls[fn]
		if decl.Body == nil || isInit(fn) {
			continue
		}
		if _, fromInit := initReach[fn]; fromInit {
			if _, fromEntry := entryReach[fn]; !fromEntry {
				continue // init-time-only helper: the write-once allowance
			}
		}
		how := "not reachable from init"
		if root, ok := entryReach[fn]; ok {
			how = fmt.Sprintf("reachable from exported %s", root.Name())
		}
		report := func(at ast.Node, v *types.Var, action string) {
			out = append(out, Finding{
				Analyzer: "globalmut",
				Pos:      pass.pos(at.Pos()),
				Message: fmt.Sprintf("package-level var %q %s outside init (%s): simulator state must be instance-local for parallel runs",
					v.Name(), action, how),
			})
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if s.Tok == token.DEFINE {
					return true // := always declares new (shadowing) locals
				}
				for _, lhs := range s.Lhs {
					if v, ok := packageLevelTarget(pass.P, lhs); ok {
						report(s, v, "written")
					}
				}
			case *ast.IncDecStmt:
				if v, ok := packageLevelTarget(pass.P, s.X); ok {
					report(s, v, "written")
				}
			case *ast.UnaryExpr:
				if s.Op == token.AND {
					if v, ok := packageLevelTarget(pass.P, s.X); ok {
						report(s, v, "address-escaped")
					}
				}
			case *ast.CallExpr:
				sel, ok := s.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				selx := pass.P.Info.Selections[sel]
				if selx == nil || selx.Kind() != types.MethodVal {
					return true
				}
				m, ok := selx.Obj().(*types.Func)
				if !ok {
					return true
				}
				sig := m.Type().(*types.Signature)
				if sig.Recv() == nil {
					return true
				}
				if _, ptr := sig.Recv().Type().(*types.Pointer); !ptr {
					return true
				}
				// Load on a sync/atomic type is the sanctioned pure read of a
				// latch (the matching Store still needs an allow annotation).
				if m.Name() == "Load" && m.Pkg() != nil && m.Pkg().Path() == "sync/atomic" {
					return true
				}
				if v, ok := packageLevelTarget(pass.P, sel.X); ok {
					report(s, v, fmt.Sprintf("mutated via pointer-receiver method %s", m.Name()))
				}
			}
			return true
		})
	}
	return out
}

// packageLevelTarget resolves the base of an lvalue-ish expression to a
// package-level variable, unwrapping field selectors, indexing, derefs, and
// qualified references to other packages' globals.
func packageLevelTarget(p *Package, e ast.Expr) (*types.Var, bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := p.Info.ObjectOf(id).(*types.PkgName); isPkg {
					return asPackageVar(p.Info.ObjectOf(x.Sel))
				}
			}
			e = x.X
		case *ast.Ident:
			return asPackageVar(p.Info.ObjectOf(x))
		default:
			return nil, false
		}
	}
}

func asPackageVar(obj types.Object) (*types.Var, bool) {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return nil, false
	}
	return v, true
}

// ---------------------------------------------------------------- aliasshare

// analyzerAliasShare flags exported functions and methods of the core
// simulator packages that retain a caller-provided pointer, map, slice,
// channel, or interface value — storing it in a field, a composite
// literal, or a package-level variable, directly or through callees. Two
// simulator instances built from the same arguments would then alias one
// mutable object, which breaks the independence the parallel experiments
// runner relies on. Interprocedural: retention summaries propagate through
// same-module calls to a fixpoint.
func analyzerAliasShare() *GlobalAnalyzer {
	return &GlobalAnalyzer{
		Name:  "aliasshare",
		Doc:   "exported core-package API retaining caller-provided mutable objects",
		Scope: ScopeCore,
		Run:   runAliasShare,
	}
}

func runAliasShare(l *Loader, loaded []*Package) []Finding {
	rt := &retention{l: l, pkgs: map[string]map[*types.Func][]bool{}}
	var out []Finding
	for _, p := range loaded {
		if !inScope(ScopeCore, l.ModPath, p.Path) {
			continue
		}
		sums := rt.of(p)
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				ret := sums[fn]
				params := paramIdents(fd)
				sig := fn.Type().(*types.Signature)
				for i, id := range params {
					if i >= len(ret) || !ret[i] || id == nil {
						continue
					}
					out = append(out, Finding{
						Analyzer: "aliasshare",
						Pos:      l.Fset.Position(id.Pos()),
						Message: fmt.Sprintf("exported %s retains caller-provided %s %q: two simulator instances could alias the same mutable object (copy it, or annotate the documented ownership transfer)",
							fn.Name(), kindLabel(sig.Params().At(i).Type()), id.Name),
					})
				}
			}
		}
	}
	return out
}

// paramIdents returns one entry per signature parameter, aligned by index
// (nil for unnamed parameters).
func paramIdents(fd *ast.FuncDecl) []*ast.Ident {
	var out []*ast.Ident
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range field.Names {
			out = append(out, name)
		}
	}
	return out
}

// mutableRef reports whether values of t can alias shared mutable state
// when copied: pointers, maps, slices, channels, and interfaces (which may
// hold any of those). Function values are excluded — callback wiring is the
// documented pattern for factories and obstruction probes.
func mutableRef(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan, *types.Interface:
		return true
	}
	return false
}

// kindLabel names a parameter's reference kind for the finding message,
// calling out the shared-RNG hazard specifically.
func kindLabel(t types.Type) string {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		if named, ok := ptr.Elem().(*types.Named); ok {
			obj := named.Obj()
			if obj.Name() == "Rand" && obj.Pkg() != nil &&
				(obj.Pkg().Path() == "math/rand" || obj.Pkg().Path() == "math/rand/v2") {
				return "*rand.Rand"
			}
		}
		return "pointer"
	}
	switch t.Underlying().(type) {
	case *types.Map:
		return "map"
	case *types.Slice:
		return "slice"
	case *types.Chan:
		return "channel"
	case *types.Interface:
		return "interface"
	}
	return "reference"
}

// retention computes per-function parameter-retention summaries, memoized
// per package. Cross-package propagation loads callee packages on demand
// (the import graph is acyclic); intra-package recursion is resolved by
// fixpoint iteration.
type retention struct {
	l    *Loader
	pkgs map[string]map[*types.Func][]bool
}

// of returns the package's summaries: fn -> per-parameter retained flags.
func (rt *retention) of(p *Package) map[*types.Func][]bool {
	if s, ok := rt.pkgs[p.Path]; ok {
		return s
	}
	sums := map[*types.Func][]bool{}
	rt.pkgs[p.Path] = sums

	type fnDecl struct {
		fn *types.Func
		d  *ast.FuncDecl
	}
	var decls []fnDecl
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sums[fn] = make([]bool, fn.Type().(*types.Signature).Params().Len())
			decls = append(decls, fnDecl{fn, fd})
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fd := range decls {
			if rt.evalFunc(p, fd.fn, fd.d, sums) {
				changed = true
			}
		}
	}
	return sums
}

// summaryFor resolves a callee's summary, loading its package when the
// callee lives elsewhere in the module. Unknown callees (stdlib, interface
// methods) are assumed non-retaining.
func (rt *retention) summaryFor(fn *types.Func) []bool {
	fn = fn.Origin()
	pkg := fn.Pkg()
	if pkg == nil {
		return nil
	}
	path := pkg.Path()
	if path != rt.l.ModPath && !strings.HasPrefix(path, rt.l.ModPath+"/") {
		return nil
	}
	p, err := rt.l.Load(path)
	if err != nil {
		return nil
	}
	return rt.of(p)[fn]
}

// evalFunc applies the retention rules to one function body and reports
// whether its summary changed.
func (rt *retention) evalFunc(p *Package, fn *types.Func, d *ast.FuncDecl, sums map[*types.Func][]bool) bool {
	ret := sums[fn]
	sig := fn.Type().(*types.Signature)
	index := map[*types.Var]int{}
	for i := 0; i < sig.Params().Len(); i++ {
		index[sig.Params().At(i)] = i
	}
	changed := false
	mark := func(i int) {
		if i >= 0 && i < len(ret) && !ret[i] && mutableRef(sig.Params().At(i).Type()) {
			ret[i] = true
			changed = true
		}
	}
	// paramOf resolves an expression to a parameter index when the
	// expression's value aliases that parameter's referent: the parameter
	// itself, a slice of it, or a reference-typed projection of it.
	paramOf := func(e ast.Expr) int {
		if !mutableRef(p.Info.TypeOf(e)) {
			return -1
		}
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.SliceExpr:
				e = x.X
			case *ast.SelectorExpr:
				e = x.X
			case *ast.Ident:
				if v, ok := p.Info.ObjectOf(x).(*types.Var); ok {
					if i, isParam := index[v]; isParam {
						return i
					}
				}
				return -1
			default:
				return -1
			}
		}
	}

	ast.Inspect(d.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, rhs := range s.Rhs {
				pi := paramOf(rhs)
				if pi < 0 {
					continue
				}
				if lhsEscapes(p, s.Tok, s.Lhs[i]) {
					mark(pi)
				}
			}
		case *ast.CompositeLit:
			for _, elt := range s.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					mark(paramOf(kv.Key))
					mark(paramOf(kv.Value))
					continue
				}
				mark(paramOf(elt))
			}
		case *ast.CallExpr:
			callee := calleeOf(p, s)
			if callee == nil {
				return true
			}
			cs := rt.summaryFor(callee)
			if cs == nil {
				return true
			}
			for j, arg := range s.Args {
				pi := paramOf(arg)
				if pi < 0 {
					continue
				}
				k := j
				if k >= len(cs) {
					k = len(cs) - 1 // variadic tail
				}
				if k >= 0 && cs[k] {
					mark(pi)
				}
			}
		}
		return true
	})
	return changed
}

// lhsEscapes reports whether assigning into lhs stores the value somewhere
// that outlives the call: a field, an element, a dereference, or a
// package-level variable. Plain local variables do not escape.
func lhsEscapes(p *Package, tok token.Token, lhs ast.Expr) bool {
	switch lhs.(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	}
	if tok == token.DEFINE {
		return false
	}
	if id, ok := lhs.(*ast.Ident); ok {
		_, pkgLevel := asPackageVar(p.Info.ObjectOf(id))
		return pkgLevel
	}
	return false
}

// calleeOf resolves a call's static callee (nil for builtins, conversions,
// and indirect calls through function values).
func calleeOf(p *Package, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// ---------------------------------------------------------------- concprim

// analyzerConcPrim pins the core simulator packages as single-threaded by
// design: any goroutine spawn, channel operation or type, select, or sync
// import there is a finding, with no exception. Concurrency lives in the
// runner layer (internal/experiments), above the certified-independent
// simulator cells.
func analyzerConcPrim() *Analyzer {
	return &Analyzer{
		Name:  "concprim",
		Doc:   "concurrency primitive inside a single-threaded core package",
		Scope: ScopeCore,
		Run:   runConcPrim,
	}
}

func runConcPrim(pass *Pass) []Finding {
	var out []Finding
	report := func(at ast.Node, what string) {
		out = append(out, Finding{
			Analyzer: "concprim",
			Pos:      pass.pos(at.Pos()),
			Message:  what + " in a core simulator package: these packages are single-threaded by design; concurrency belongs in the runner layer (internal/experiments)",
		})
	}
	for _, f := range pass.P.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "sync" || path == "sync/atomic" {
				report(imp, "import of "+path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.GoStmt:
				report(s, "goroutine spawn")
			case *ast.SendStmt:
				report(s, "channel send")
			case *ast.SelectStmt:
				report(s, "select statement")
			case *ast.UnaryExpr:
				if s.Op == token.ARROW {
					report(s, "channel receive")
				}
			case *ast.ChanType:
				report(s, "channel type")
			case *ast.RangeStmt:
				if t := pass.P.Info.TypeOf(s.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						report(s, "range over channel")
					}
				}
			}
			return true
		})
	}
	return out
}
