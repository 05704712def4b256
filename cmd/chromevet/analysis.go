package main

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Scope restricts which packages an analyzer inspects.
type Scope int

const (
	// ScopeInternal covers every package under <module>/internal/.
	ScopeInternal Scope = iota
	// ScopeCore covers the simulator-state packages whose behaviour feeds
	// reported results: internal/{sim,cache,policy,chrome,cpu,camat,
	// prefetch} and below.
	ScopeCore
)

// coreDirs are the ScopeCore package roots (relative to <module>/internal/).
var coreDirs = []string{"sim", "cache", "policy", "chrome", "cpu", "camat", "prefetch"}

// inScope reports whether a package path falls under the scope.
func inScope(s Scope, modPath, pkgPath string) bool {
	rest, ok := strings.CutPrefix(pkgPath, modPath+"/internal/")
	if !ok {
		return false
	}
	if s == ScopeInternal {
		return true
	}
	for _, d := range coreDirs {
		if rest == d || strings.HasPrefix(rest, d+"/") {
			return true
		}
	}
	return false
}

// Analyzer is a per-package check.
type Analyzer struct {
	Name  string
	Scope Scope
	Run   func(*Pass) []Finding
}

// Pass hands one package to an analyzer.
type Pass struct {
	L *Loader
	P *Package
}

func (p *Pass) pos(at token.Pos) token.Position { return p.L.Fset.Position(at) }

// Analyzers returns the analyzer suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		analyzerMapRange(),
		analyzerConcPrim(),
		analyzerHotBlock(),
	}
}

// RunAnalyzers applies the suite to the loaded packages, each analyzer to
// the packages in its scope, and returns the sorted findings.
func RunAnalyzers(l *Loader, pkgs []*Package) []Finding { return runSuite(l, pkgs, true) }

// RunSelfAudit applies every analyzer to the given packages regardless of
// scope: chromevet holding its own source to the rules it enforces on the
// simulator.
func RunSelfAudit(l *Loader, pkgs []*Package) []Finding { return runSuite(l, pkgs, false) }

func runSuite(l *Loader, pkgs []*Package, scoped bool) []Finding {
	var out []Finding
	for _, p := range pkgs {
		for _, a := range Analyzers() {
			if !scoped || inScope(a.Scope, l.ModPath, p.Path) {
				out = append(out, a.Run(&Pass{L: l, P: p})...)
			}
		}
	}
	SortFindings(out)
	return out
}

// SortFindings orders findings by file, line, column, analyzer.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
