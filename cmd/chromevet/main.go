// Command chromevet is the project-specific static-analysis suite of the
// CHROME simulator repository. It is built from the standard library only
// (go/parser + go/types + the source importer) and enforces the three
// invariants that neither the tests, the race detector nor `go vet` catch
// (DESIGN.md §11):
//
//   - maprange: no map-iteration order reaching simulator state or results
//     in the core simulator packages;
//   - concprim: no concurrency primitives (goroutines, channels, select,
//     sync imports) inside those single-threaded core packages;
//   - hotblock: functions annotated //chromevet:hot never block — no sync
//     primitives, channel operations, timer waits, or I/O.
//
// Determinism, numeric widths, dimension safety and allocation on the hot
// path are held by tests instead: the committed report and result digests,
// the policy tests, TestAllocBudget and the race detector.
//
// Findings can be suppressed line-by-line with a justification comment:
//
//	//chromevet:allow maprange -- collect-then-sort: the keys are sorted below
//
// The suppressions are audited in turn: an allow naming an unknown analyzer
// or one whose analyzer reports nothing on that line (a stale waiver) is
// itself a finding, like go vet's unused directives.
//
// Usage: go run ./cmd/chromevet ./...
// Exit status is 1 when any finding is reported, 0 on a clean tree.
// The -self flag audits chromevet's own source with every analyzer, scopes
// bypassed — the suite holds itself to its own rules.
// The -json flag emits findings as a JSON array (file/line/column/
// analyzer/message) for tooling such as CI annotation emitters.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chromevet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	verbose := fs.Bool("v", false, "list analyzed packages")
	self := fs.Bool("self", false, "audit chromevet's own source with every analyzer, ignoring scopes")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array (file/line/column/analyzer/message)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "chromevet:", err)
		return 2
	}
	modRoot, modPath, err := FindModule(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "chromevet:", err)
		return 2
	}
	loader := NewLoader(modRoot, modPath)

	paths, err := expandPatterns(modRoot, modPath, cwd, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "chromevet:", err)
		return 2
	}
	if *self {
		// The self-audit holds the analyzer suite to its own rules; the
		// scope bypass matters because cmd/chromevet sits outside every
		// analyzer scope.
		paths = []string{modPath + "/cmd/chromevet"}
	}
	var pkgs []*Package
	for _, path := range paths {
		p, err := loader.Load(path)
		if err != nil {
			fmt.Fprintf(stderr, "chromevet: %v\n", err)
			return 2
		}
		if *verbose {
			fmt.Fprintf(stderr, "chromevet: analyzing %s\n", path)
		}
		pkgs = append(pkgs, p)
	}

	var findings []Finding
	if *self {
		findings = RunSelfAudit(loader, pkgs)
	} else {
		findings = RunAnalyzers(loader, pkgs)
	}
	if *jsonOut {
		if err := writeJSON(stdout, cwd, findings); err != nil {
			fmt.Fprintln(stderr, "chromevet:", err)
			return 2
		}
		if len(findings) > 0 {
			return 1
		}
		return 0
	}
	for _, f := range findings {
		fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", relPath(cwd, f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stdout, "chromevet: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		return 1
	}
	return 0
}

// relPath shortens a finding's filename to be cwd-relative when possible.
func relPath(cwd, name string) string {
	if r, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(r, "..") {
		return r
	}
	return name
}

// jsonFinding is the -json wire form of one finding.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// writeJSON emits the findings as a JSON array (an empty array on a clean
// tree, so consumers can always parse stdout).
func writeJSON(w io.Writer, cwd string, findings []Finding) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File:     relPath(cwd, f.Pos.Filename),
			Line:     f.Pos.Line,
			Column:   f.Pos.Column,
			Analyzer: f.Analyzer,
			Message:  f.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// expandPatterns resolves go-style package patterns ("./...", "./internal/cache")
// relative to cwd into module import paths, skipping testdata, vendor, and
// hidden directories.
func expandPatterns(modRoot, modPath, cwd string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(dir string) error {
		path, err := importPathFor(modRoot, modPath, dir)
		if err != nil {
			return err
		}
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
		return nil
	}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") || pat == "..." {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if pat == "" {
				pat = "."
			}
		}
		root := pat
		if !filepath.IsAbs(root) {
			root = filepath.Join(cwd, root)
		}
		if !recursive {
			if err := add(root); err != nil {
				return nil, err
			}
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasBuildableGoFiles(path) {
				return add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

func hasBuildableGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") &&
			!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".") {
			return true
		}
	}
	return false
}

func importPathFor(modRoot, modPath, dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(modRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("%s is outside module %s", dir, modPath)
	}
	if rel == "." {
		return modPath, nil
	}
	return modPath + "/" + filepath.ToSlash(rel), nil
}
