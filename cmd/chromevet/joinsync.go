package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// analyzerJoinSync certifies goroutine lifecycle in internal packages (the
// experiments worker pool is the live client): results computed by spawned
// workers may only be read back after the workers are provably finished.
// Every goroutine spawned in the package must signal completion (a close, a
// WaitGroup Done, or a send on a channel) and some such signal must be
// awaited in the package (a receive, a range over the channel, or a Wait) —
// an unjoined goroutine can still be writing when its output is consumed.
//
// The signal/join match is by the signaled object (the channel or
// WaitGroup variable or field), an over-approximation that accepts any
// awaited handshake without modeling happens-before edges.
func analyzerJoinSync() *Analyzer {
	return &Analyzer{
		Name:  "joinsync",
		Doc:   "spawned goroutines are provably joined before their results are read back",
		Scope: ScopeInternal,
		Run:   runJoinSync,
	}
}

func runJoinSync(pass *Pass) []Finding {
	p := pass.P
	var out []Finding

	// decls maps the package's declared functions to their bodies, so
	// `go l.run()` resolves to run's declaration.
	decls := map[*types.Func]*ast.FuncDecl{}
	var funcDecls []*ast.FuncDecl
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			funcDecls = append(funcDecls, fd)
			if fd.Body == nil {
				continue
			}
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}

	// joins collects every object the package awaits on: receive, range
	// over a channel, or WaitGroup Wait.
	joins := map[token.Pos]bool{}
	for _, fd := range funcDecls {
		if fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if pos, ok := joinTarget(p, n); ok {
				joins[pos] = true
			}
			return true
		})
	}

	for _, fd := range funcDecls {
		if fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body := spawnedBody(p, decls, g)
			if body == nil {
				out = append(out, Finding{
					Analyzer: "joinsync",
					Pos:      pass.pos(g.Pos()),
					Message:  "spawns a goroutine whose body cannot be resolved in this package: certified goroutines must be provably joined",
				})
				return true
			}
			signals := signalObjects(p, body)
			joined := false
			for pos := range signals {
				if joins[pos] {
					joined = true //chromevet:allow maprange -- any-match scan over a set; the boolean result is order-independent
				}
			}
			switch {
			case len(signals) == 0:
				out = append(out, Finding{
					Analyzer: "joinsync",
					Pos:      pass.pos(g.Pos()),
					Message:  "spawns a goroutine that signals no completion (no close, Done, or send): it cannot be joined before its results are read back",
				})
			case !joined:
				out = append(out, Finding{
					Analyzer: "joinsync",
					Pos:      pass.pos(g.Pos()),
					Message:  "spawns a goroutine whose completion signal is never awaited in this package: add a receive or Wait on the handshake before reading its results",
				})
			}
			return true
		})
	}

	return out
}

// spawnedBody resolves a go statement's target to a function body: a
// literal's own body, or the declaration of a same-package function or
// method. Cross-package and indirect targets resolve to nil.
func spawnedBody(p *Package, decls map[*types.Func]*ast.FuncDecl, g *ast.GoStmt) *ast.BlockStmt {
	fun := ast.Unparen(g.Call.Fun)
	if lit, ok := fun.(*ast.FuncLit); ok {
		return lit.Body
	}
	fn := calleeOf(p, g.Call)
	if fn == nil {
		return nil
	}
	if fd, ok := decls[fn.Origin()]; ok {
		return fd.Body
	}
	return nil
}

// signalObjects collects the completion signals a goroutine body emits,
// keyed by the signaled object's declaration position: close(ch),
// wg.Done(), and plain sends all count (deferred ones included — the walk
// sees the call either way).
func signalObjects(p *Package, body *ast.BlockStmt) map[token.Pos]bool {
	out := map[token.Pos]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SendStmt:
			if pos, ok := handleObjPos(p, x.Chan); ok {
				out[pos] = true
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if _, isBuiltin := p.Info.ObjectOf(id).(*types.Builtin); isBuiltin && id.Name == "close" && len(x.Args) == 1 {
					if pos, ok := handleObjPos(p, x.Args[0]); ok {
						out[pos] = true
					}
				}
			}
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				if pos, ok := handleObjPos(p, sel.X); ok {
					out[pos] = true
				}
			}
		}
		return true
	})
	return out
}

// joinTarget reports the object a node awaits on, if it is a join
// operation: a channel receive, a range over a channel, or a Wait call.
func joinTarget(p *Package, n ast.Node) (token.Pos, bool) {
	switch x := n.(type) {
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			return handleObjPos(p, x.X)
		}
	case *ast.RangeStmt:
		if t := p.Info.TypeOf(x.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				return handleObjPos(p, x.X)
			}
		}
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" && len(x.Args) == 0 {
			return handleObjPos(p, sel.X)
		}
	}
	return token.NoPos, false
}

// handleObjPos resolves a channel-or-WaitGroup expression to the
// declaration position of its handle: the named variable, or the struct
// field for selector and indexed-field forms (done[s] and sh.done[s] both
// resolve to the done field — per-element precision is deliberately
// dropped; the field is the handshake).
func handleObjPos(p *Package, e ast.Expr) (token.Pos, bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			if obj := p.Info.ObjectOf(x); obj != nil {
				return obj.Pos(), true
			}
			return token.NoPos, false
		case *ast.SelectorExpr:
			if obj, ok := p.Info.Uses[x.Sel]; ok {
				return obj.Pos(), true
			}
			return token.NoPos, false
		default:
			return token.NoPos, false
		}
	}
}
