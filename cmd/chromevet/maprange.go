package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// analyzerMapRange flags `for range m` loops over maps in the core
// simulator packages whose bodies let the (randomized) iteration order
// reach simulator state or results: writes to variables declared outside
// the loop, floating-point accumulation, early exits, and pointer-receiver
// method calls on outer state. Integer accumulation (+=, -=, |=, &=, ^=,
// ++/--) is commutative and therefore allowed. CHROME's evaluation rests
// on relative speedups between policies, so any map-order dependence in
// the simulator invalidates the reproduced figures.
func analyzerMapRange() *Analyzer {
	return &Analyzer{
		Name:  "maprange",
		Scope: ScopeCore,
		Run:   runMapRange,
	}
}

func runMapRange(pass *Pass) []Finding {
	var out []Finding
	for _, f := range pass.P.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.P.Info.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			out = append(out, checkMapRangeBody(pass, rng)...)
			return true
		})
	}
	return out
}

// commutativeIntOps are assignment operators whose repeated application is
// order-independent on integers.
var commutativeIntOps = map[token.Token]bool{
	token.ADD_ASSIGN: true, token.SUB_ASSIGN: true,
	token.OR_ASSIGN: true, token.AND_ASSIGN: true, token.XOR_ASSIGN: true,
}

func checkMapRangeBody(pass *Pass, rng *ast.RangeStmt) []Finding {
	var out []Finding
	report := func(at ast.Node, format string, args ...any) {
		out = append(out, Finding{
			Analyzer: "maprange",
			Pos:      pass.pos(at.Pos()),
			Message:  fmt.Sprintf(format, args...) + " inside map iteration (order is randomized; sort the keys first)",
		})
	}
	// An object is loop-local when it is declared within the RangeStmt span
	// (covers the key/value vars and everything declared in the body).
	local := func(id *ast.Ident) bool {
		obj := pass.P.Info.ObjectOf(id)
		if obj == nil {
			return true // unresolved; stay quiet
		}
		return obj.Pos() >= rng.Pos() && obj.Pos() < rng.End()
	}
	isFloat := func(e ast.Expr) bool {
		t := pass.P.Info.TypeOf(e)
		if t == nil {
			return false
		}
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsFloat != 0
	}
	isInteger := func(e ast.Expr) bool {
		t := pass.P.Info.TypeOf(e)
		if t == nil {
			return false
		}
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsInteger != 0
	}

	// breakDepth counts enclosing constructs an unlabeled break would bind
	// to (nested loops, switches, selects); inFunc marks function literals,
	// where return no longer exits the range loop.
	breakDepth, inFunc := 0, false
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ForStmt:
			breakDepth++
			ast.Inspect(s.Body, walk)
			breakDepth--
			return false
		case *ast.RangeStmt:
			breakDepth++
			ast.Inspect(s.Body, walk)
			breakDepth--
			return false
		case *ast.SwitchStmt:
			if s.Init != nil {
				ast.Inspect(s.Init, walk)
			}
			breakDepth++
			ast.Inspect(s.Body, walk)
			breakDepth--
			return false
		case *ast.TypeSwitchStmt:
			breakDepth++
			ast.Inspect(s.Body, walk)
			breakDepth--
			return false
		case *ast.SelectStmt:
			breakDepth++
			ast.Inspect(s.Body, walk)
			breakDepth--
			return false
		case *ast.FuncLit:
			savedDepth, savedInFunc := breakDepth, inFunc
			breakDepth, inFunc = 1, true
			ast.Inspect(s.Body, walk)
			breakDepth, inFunc = savedDepth, savedInFunc
			return false
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range s.Lhs {
				root := rootIdent(lhs)
				if root == nil || local(root) {
					continue
				}
				switch {
				case commutativeIntOps[s.Tok] && isInteger(lhs):
					// order-independent integer accumulation
				case s.Tok != token.ASSIGN && isFloat(lhs):
					report(s, "floating-point accumulation into %q (FP addition is not associative)", root.Name)
				default:
					report(s, "write to %q declared outside the loop", root.Name)
				}
			}
		case *ast.IncDecStmt:
			root := rootIdent(s.X)
			if root != nil && !local(root) && !isInteger(s.X) {
				report(s, "floating-point %s of %q", s.Tok, root.Name)
			}
		case *ast.ReturnStmt:
			if !inFunc {
				report(s, "return")
			}
		case *ast.BranchStmt:
			if s.Tok == token.BREAK && breakDepth == 0 && s.Label == nil {
				report(s, "break (selects an arbitrary element)")
			}
		case *ast.SendStmt:
			report(s, "channel send")
		case *ast.CallExpr:
			if sel, ok := s.Fun.(*ast.SelectorExpr); ok {
				if selx := pass.P.Info.Selections[sel]; selx != nil && selx.Kind() == types.MethodVal {
					if sig, ok := selx.Obj().Type().(*types.Signature); ok && sig.Recv() != nil {
						if _, ptr := sig.Recv().Type().(*types.Pointer); ptr {
							if root := rootIdent(sel.X); root != nil && !local(root) {
								report(s, "pointer-receiver method call %s on %q declared outside the loop", sel.Sel.Name, root.Name)
							}
						}
					}
				}
			}
		}
		return true
	}
	ast.Inspect(rng.Body, walk)
	return out
}

// rootIdent unwraps selectors, indexes, derefs, and parens to the base
// identifier of an lvalue-ish expression (nil when there is none, e.g. a
// function call result).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
