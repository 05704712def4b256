package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// Package is one loaded, type-checked package plus the side tables the
// analyzers need (ASTs and type info).
type Package struct {
	Path  string // import path ("chrome/internal/cache")
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of one module without any tooling
// outside the standard library. Imports inside the module are resolved by
// path mapping; everything else goes through the source importer (which
// type-checks the standard library from GOROOT source).
type Loader struct {
	Fset    *token.FileSet
	ModRoot string // directory containing go.mod
	ModPath string // module path ("chrome")

	std       types.Importer
	overrides map[string]string // import path -> directory (fixture loading)
	pkgs      map[string]*Package
	loading   map[string]bool
}

// NewLoader builds a loader rooted at the module directory.
func NewLoader(modRoot, modPath string) *Loader {
	l := &Loader{
		Fset:      token.NewFileSet(),
		ModRoot:   modRoot,
		ModPath:   modPath,
		overrides: map[string]string{},
		pkgs:      map[string]*Package{},
		loading:   map[string]bool{},
	}
	l.std = importer.ForCompiler(l.Fset, "source", nil)
	return l
}

// Override maps an import path to a directory, shadowing the module layout.
// Used by the fixture driver to load testdata packages under realistic
// import paths.
func (l *Loader) Override(path, dir string) { l.overrides[path] = dir }

// dirFor resolves an import path inside the module to a directory.
func (l *Loader) dirFor(path string) (string, bool) {
	if dir, ok := l.overrides[path]; ok {
		return dir, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModPath+"/"); ok {
		return filepath.Join(l.ModRoot, filepath.FromSlash(rest)), true
	}
	return "", false
}

// Import implements types.Importer for the type-checker.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := l.dirFor(path); ok {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	return l.std.Import(path)
}

// Load parses and type-checks the package at the import path (memoized).
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("%s is outside module %s", path, l.ModPath)
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}

	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Files: files, Pkg: pkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// parseDir parses the Go files of one directory that the default build
// compiles for the host, in filename order: go/build selects them by file
// name and //go:build line, leaving out _test.go files and the files of
// the simcheck tag.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// FindModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func FindModule(dir string) (root, path string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if mod, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(mod), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
