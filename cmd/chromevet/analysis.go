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

// Scope restricts which packages a per-package analyzer inspects.
type Scope int

const (
	// ScopeInternal covers every package under <module>/internal/.
	ScopeInternal Scope = iota
	// ScopeCore covers the simulator-state packages whose behaviour feeds
	// reported results — the packages pinned single-threaded by the
	// parallel-safety layer: internal/{sim,cache,policy,chrome,cpu,camat,
	// prefetch} and below.
	ScopeCore
	// ScopeModule covers every package of the module (internal, cmd,
	// examples): used by checks whose invariant crosses the internal
	// boundary, like the typed-quantity discipline.
	ScopeModule
)

// coreDirs are the ScopeCore package roots (relative to <module>/internal/).
var coreDirs = []string{"sim", "cache", "policy", "chrome", "cpu", "camat", "prefetch"}

// inScope reports whether a package path falls under the scope.
func inScope(s Scope, modPath, pkgPath string) bool {
	if s == ScopeModule {
		return pkgPath == modPath || strings.HasPrefix(pkgPath, modPath+"/")
	}
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
	Doc   string
	Scope Scope
	Run   func(*Pass) []Finding
}

// GlobalAnalyzer is a whole-program check that may load further packages.
// Scope records which packages the check can produce findings in; the
// suppression audit uses it to decide whether an unused allow comment for
// the analyzer is stale.
type GlobalAnalyzer struct {
	Name  string
	Doc   string
	Scope Scope
	Run   func(l *Loader, loaded []*Package) []Finding
}

// Pass hands one package to a per-package analyzer.
type Pass struct {
	L *Loader
	P *Package
}

func (p *Pass) pos(at token.Pos) token.Position { return p.L.Fset.Position(at) }

// Analyzers returns the per-package analyzer suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		analyzerMapRange(),
		analyzerGlobalRand(),
		analyzerWallTime(),
		analyzerNarrowing(),
		analyzerFloatEq(),
		analyzerGlobalMut(),
		analyzerConcPrim(),
		analyzerHotAlloc(),
		analyzerFrozenShare(),
		analyzerUnits(),
		analyzerHwWidth(),
		analyzerJoinSync(),
		analyzerGuardedBy(),
		analyzerLockOrder(),
		analyzerHotBlock(),
	}
}

// GlobalAnalyzers returns the whole-program analyzer suite.
func GlobalAnalyzers() []*GlobalAnalyzer {
	return []*GlobalAnalyzer{
		analyzerPolicyReg(),
		analyzerAliasShare(),
		analyzerFixtures(),
	}
}

// RunAnalyzers applies the per-package suite to the loaded packages and the
// global suite to the whole set, dropping findings suppressed by
// "//chromevet:allow" comments, and returns the sorted findings (including
// the suppression audit's stale/unknown-allow findings).
func RunAnalyzers(l *Loader, pkgs []*Package) []Finding {
	var out []Finding
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	ran := map[*Package]map[string]bool{}
	for _, p := range pkgs {
		ran[p] = map[string]bool{}
		for _, a := range Analyzers() {
			if !inScope(a.Scope, l.ModPath, p.Path) {
				continue
			}
			ran[p][a.Name] = true
			out = append(out, filterAllowed(p, a.Name, a.Run(&Pass{L: l, P: p}))...)
		}
	}
	for _, g := range GlobalAnalyzers() {
		fs := g.Run(l, pkgs)
		for _, f := range fs {
			if p, ok := byPath[pathForFile(l, pkgs, f)]; ok && p.Allowed(f.Analyzer, f.Pos) {
				continue
			}
			out = append(out, f)
		}
		for _, p := range pkgs {
			if inScope(g.Scope, l.ModPath, p.Path) {
				ran[p][g.Name] = true
			}
		}
	}
	for _, p := range pkgs {
		out = append(out, auditAllows(p, ran[p])...)
	}
	SortFindings(out)
	return out
}

// RunSelfAudit applies every per-package analyzer to the given packages
// regardless of scope: chromevet holding its own source to the rules it
// enforces on the simulator. Global analyzers are skipped — they reason
// about the simulator's package graph (policy registry, fixture coverage),
// not about any single package's code.
func RunSelfAudit(l *Loader, pkgs []*Package) []Finding {
	var out []Finding
	for _, p := range pkgs {
		ran := map[string]bool{}
		for _, a := range Analyzers() {
			ran[a.Name] = true
			out = append(out, filterAllowed(p, a.Name, a.Run(&Pass{L: l, P: p}))...)
		}
		out = append(out, auditAllows(p, ran)...)
	}
	SortFindings(out)
	return out
}

// auditAllows holds the suppression comments themselves to account: an
// allow naming an analyzer the suite does not have is a typo that would
// silently suppress nothing forever, and an allow whose analyzer ran over
// the package without matching any finding is stale — the hazard it
// justified no longer exists. Both are reported under the pseudo-analyzer
// "allow", whose findings are deliberately unsuppressable (an allow cannot
// waive the audit of allows).
func auditAllows(p *Package, ran map[string]bool) []Finding {
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	for _, g := range GlobalAnalyzers() {
		known[g.Name] = true
	}
	var out []Finding
	for _, rec := range p.allowRecords {
		switch {
		case !known[rec.name]:
			out = append(out, Finding{
				Analyzer: "allow",
				Pos:      rec.pos,
				Message:  fmt.Sprintf("allow names unknown analyzer %q: the suppression can never match (typo?)", rec.name),
			})
		case !rec.used && ran[rec.name]:
			out = append(out, Finding{
				Analyzer: "allow",
				Pos:      rec.pos,
				Message:  fmt.Sprintf("stale allow: %s reported no finding on this line; delete the suppression or move it to the hazard it justifies", rec.name),
			})
		}
	}
	return out
}

// pathForFile maps a finding back to its package (best effort, for allow
// comments on global-analyzer findings). The longest matching directory
// wins, so files in nested packages are not claimed by the module root.
func pathForFile(l *Loader, pkgs []*Package, f Finding) string {
	best, bestLen := "", -1
	for _, p := range pkgs {
		if strings.HasPrefix(f.Pos.Filename, p.Dir+string('/')) || f.Pos.Filename == p.Dir {
			if len(p.Dir) > bestLen {
				best, bestLen = p.Path, len(p.Dir)
			}
		}
	}
	return best
}

func filterAllowed(p *Package, analyzer string, fs []Finding) []Finding {
	kept := fs[:0]
	for _, f := range fs {
		if p.Allowed(analyzer, f.Pos) {
			continue
		}
		kept = append(kept, f)
	}
	return kept
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
