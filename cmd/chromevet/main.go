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
// Usage, from anywhere inside the module:
//
//	go run ./cmd/chromevet
//
// It takes no arguments and checks every package under internal/ and cmd/.
// Exit status is 0 on a clean tree, 1 when any finding is
// reported and 2 when a package fails to load.
package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

func main() {
	if len(os.Args) > 1 {
		fmt.Fprintln(os.Stderr, "usage: chromevet (no arguments: it checks every package under internal/ and cmd/)")
		os.Exit(2)
	}
	root, modPath, err := FindModule(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "chromevet:", err)
		os.Exit(2)
	}
	findings, paths, err := checkModule(NewLoader(root, modPath))
	if err != nil {
		fmt.Fprintln(os.Stderr, "chromevet:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Printf("chromevet: %d finding(s) in %d package(s)\n", len(findings), len(paths))
		os.Exit(1)
	}
}

// checkModule runs the suite over every package under internal/ and cmd/
// of l's module. It returns the findings and the sorted import
// paths of the packages it checked.
func checkModule(l *Loader) ([]Finding, []string, error) {
	var paths []string
	for _, top := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(l.ModRoot, top), func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && d.Name() == "testdata":
				return filepath.SkipDir
			case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
				return nil
			}
			rel, err := filepath.Rel(l.ModRoot, filepath.Dir(path))
			if err != nil {
				return err
			}
			if pkg := l.ModPath + "/" + filepath.ToSlash(rel); !slices.Contains(paths, pkg) {
				paths = append(paths, pkg)
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	slices.Sort(paths)

	pkgs := make([]*Package, 0, len(paths))
	for _, path := range paths {
		p, err := l.Load(path)
		if err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, p)
	}
	return RunAnalyzers(l, pkgs), paths, nil
}
