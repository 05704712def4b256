package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// analyzerConcPrim pins the core simulator packages as single-threaded by
// design: any goroutine spawn, channel operation or type, select, or sync
// import there is a finding, with no exception. Concurrency lives in the
// runner layer (internal/experiments), which runs independent simulator
// cells on a worker pool.
func analyzerConcPrim() *Analyzer {
	return &Analyzer{
		Name:  "concprim",
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
