package main

// The hotblock analyzer (DESIGN.md §11): functions annotated
// `//chromevet:hot` must never block. TestAllocBudget keeps allocation out
// of the per-access path; hotblock keeps synchronization and I/O out: no
// mutex operations, no channel send/receive/select, no time.Sleep-style
// waits, no I/O calls. A hot function that blocks stalls every access
// behind it — the per-access budget is tens of nanoseconds, and even an
// uncontended mutex is a meaningful fraction of that. No test catches it:
// a lock taken and released on one goroutine is no data race, allocates
// nothing, and changes no output.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

func analyzerHotBlock() *Analyzer {
	return &Analyzer{
		Name:  "hotblock",
		Scope: ScopeInternal,
		Run:   runHotBlock,
	}
}

func runHotBlock(pass *Pass) []Finding {
	p := pass.P
	var out []Finding
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hotAnnotated(fd) {
				continue
			}
			report := func(pos token.Pos, what string) {
				out = append(out, Finding{
					Analyzer: "hotblock",
					Pos:      pass.pos(pos),
					Message:  fmt.Sprintf("%s in hot function %s: //chromevet:hot paths must not block", what, fd.Name.Name),
				})
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SendStmt:
					report(x.Arrow, "channel send")
				case *ast.UnaryExpr:
					if x.Op == token.ARROW {
						report(x.OpPos, "channel receive")
					}
				case *ast.SelectStmt:
					report(x.Select, "select statement")
				case *ast.RangeStmt:
					if t := p.Info.TypeOf(x.X); t != nil {
						if _, isChan := t.Underlying().(*types.Chan); isChan {
							report(x.For, "range over a channel")
						}
					}
				case *ast.CallExpr:
					if what := blockingCallDesc(p, x); what != "" {
						report(x.Pos(), what)
					}
				}
				return true
			})
		}
	}
	return out
}

// hotAnnotated reports whether the function's doc comment carries the
// //chromevet:hot directive.
func hotAnnotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == "//chromevet:hot" {
			return true
		}
	}
	return false
}

// blockingCallDesc classifies a call as blocking (or I/O) by its callee's
// package: sync primitives (any method — a hot path should not touch a
// mutex at all, and Lock can park the goroutine), the waiting half of
// time, the printing half of fmt, and the I/O packages. sync/atomic is
// not sync: atomics are the one synchronization hot code may use.
func blockingCallDesc(p *Package, call *ast.CallExpr) string {
	fn := calleeOf(p, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	path, name := fn.Pkg().Path(), fn.Name()
	switch {
	case path == "sync":
		if recv := recvTypeName(fn); recv != "" {
			return "call to sync." + recv + "." + name
		}
		return "call to sync." + name
	case path == "time":
		switch name {
		case "Sleep", "After", "Tick", "NewTimer", "NewTicker", "AfterFunc":
			return "call to time." + name
		}
	case path == "fmt":
		switch name {
		case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf":
			return "call to fmt." + name
		}
	case path == "os" || path == "io" || path == "bufio" || path == "syscall" ||
		path == "net" || strings.HasPrefix(path, "net/"):
		return "I/O call to " + path + "." + name
	}
	return ""
}

// recvTypeName returns the name of a method's receiver type, or "".
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
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
