package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// This file holds the module-wide annotation tables shared by the
// guardedby/lockorder analyzers (DESIGN.md §11): guarded fields
// ("//chromevet:guardedby mu"), ranked mutexes ("//chromevet:lockrank N"),
// and caller-holds method summaries ("//chromevet:locked mu"). The
// annotated declarations may live in any package while the code under
// analysis sits anywhere in the module.
//
// Each table is keyed by the declaring identifier's position (token.Pos
// under the loader's shared FileSet): positions survive generic
// instantiation (an instantiated method or field reports its origin
// declaration's position), which object identity does not. Annotation
// errors travel in the value (bad != "") so only the declaring package's
// pass reports them.

// modulePackages returns every module package the loader has loaded so far
// plus p itself, sorted by import path. Analyzers call it after their
// target package type-checked, so every dependency the target can name is
// already in the set.
func modulePackages(l *Loader, p *Package) []*Package {
	seen := map[string]*Package{p.Path: p}
	for path, q := range l.pkgs {
		if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
			seen[path] = q //chromevet:allow maprange -- map insert keyed by the iterated key is order-independent; sorted below
		}
	}
	paths := make([]string, 0, len(seen))
	for path := range seen {
		paths = append(paths, path) //chromevet:allow maprange -- collect-then-sort: gathers the keys for the sort below
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, path := range paths {
		out = append(out, seen[path])
	}
	return out
}

// directiveArg returns the first argument of a "<directive> <arg>" comment
// line in any of the groups, and whether the directive is present at all. A
// bare directive line (or one with only trailing comments) reports ("",
// true), so callers can flag a missing argument.
func directiveArg(directive string, groups ...*ast.CommentGroup) (string, bool) {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if c.Text == directive {
				return "", true
			}
			rest, ok := strings.CutPrefix(c.Text, directive+" ")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 || strings.HasPrefix(fields[0], "//") {
				return "", true
			}
			return fields[0], true
		}
	}
	return "", false
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex, and which.
func isMutexType(t types.Type) (rw, ok bool) {
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return false, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false, false
	}
	switch obj.Name() {
	case "Mutex":
		return false, true
	case "RWMutex":
		return true, true
	}
	return false, false
}

// guardedField describes one "//chromevet:guardedby mu" field annotation:
// the named sibling mutex that must be held to touch the field. bad carries
// the annotation error when the named sibling is missing or not a mutex.
type guardedField struct {
	pkgPath   string
	name      string
	mutexName string
	mutexPos  token.Pos
	rw        bool // guard is an RWMutex: RLock licenses reads
	bad       string
}

// collectGuardedFields gathers the module's guardedby-annotated struct
// fields, keyed by the declaring field identifier's position.
func collectGuardedFields(l *Loader, p *Package) map[token.Pos]guardedField {
	out := map[token.Pos]guardedField{}
	for _, q := range modulePackages(l, p) {
		for _, f := range q.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, fld := range st.Fields.List {
					arg, ok := directiveArg("//chromevet:guardedby", fld.Doc, fld.Comment)
					if !ok {
						continue
					}
					gf := guardedField{pkgPath: q.Path, mutexName: arg}
					switch pos, rw, status := findMutexSibling(q, st, arg); {
					case arg == "":
						gf.bad = "//chromevet:guardedby needs the name of the sibling mutex field"
					case status == siblingMissing:
						gf.bad = fmt.Sprintf("//chromevet:guardedby names %q: no such sibling field in the struct", arg)
					case status == siblingNotMutex:
						gf.bad = fmt.Sprintf("//chromevet:guardedby names %q, which is not a sync.Mutex or sync.RWMutex field", arg)
					default:
						gf.mutexPos, gf.rw = pos, rw
					}
					for _, name := range fld.Names {
						gf := gf
						gf.name = name.Name
						out[name.Pos()] = gf
					}
				}
				return true
			})
		}
	}
	return out
}

const (
	siblingFound = iota
	siblingMissing
	siblingNotMutex
)

// findMutexSibling locates the struct field with the given name and checks
// it is a mutex, returning its declaration position and flavor.
func findMutexSibling(q *Package, st *ast.StructType, name string) (pos token.Pos, rw bool, status int) {
	for _, fld := range st.Fields.List {
		for _, id := range fld.Names {
			if id.Name != name {
				continue
			}
			rw, ok := isMutexType(q.Info.TypeOf(fld.Type))
			if !ok {
				return token.NoPos, false, siblingNotMutex
			}
			return id.Pos(), rw, siblingFound
		}
	}
	return token.NoPos, false, siblingMissing
}

// lockedFunc describes one "//chromevet:locked mu" method summary: the
// caller must hold the receiver's named mutex exclusively for the whole
// call. The summary is what makes guardedby interprocedural — the locked
// body is checked with the mutex in its entry lock set, and every call site
// is checked to hold it.
type lockedFunc struct {
	pkgPath   string
	name      string // display name ("shard.get")
	mutexName string
	mutexPos  token.Pos
	bad       string
}

// collectLockedFuncs gathers the module's locked-annotated methods, keyed
// by the declaring identifier's position.
func collectLockedFuncs(l *Loader, p *Package) map[token.Pos]lockedFunc {
	out := map[token.Pos]lockedFunc{}
	for _, q := range modulePackages(l, p) {
		for _, f := range q.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				arg, ok := directiveArg("//chromevet:locked", fd.Doc)
				if !ok {
					continue
				}
				lf := lockedFunc{pkgPath: q.Path, name: fd.Name.Name, mutexName: arg}
				switch pos, ok := receiverMutexField(&Pass{L: l, P: q}, fd, arg); {
				case arg == "":
					lf.bad = "//chromevet:locked needs the name of the receiver's mutex field"
				case fd.Recv == nil:
					lf.bad = "//chromevet:locked requires a method: a plain function has no receiver to hold a lock on"
				case !ok:
					lf.bad = fmt.Sprintf("//chromevet:locked names %q, which is not a sync.Mutex or sync.RWMutex field of the receiver", arg)
				default:
					lf.mutexPos = pos
					if obj := receiverTypeObj(&Pass{L: l, P: q}, fd); obj != nil {
						lf.name = obj.Name() + "." + lf.name
					}
				}
				out[fd.Name.Pos()] = lf
			}
		}
	}
	return out
}

// receiverMutexField resolves a method receiver's struct field by name to
// its declaration position, requiring a mutex type.
func receiverMutexField(pass *Pass, fd *ast.FuncDecl, name string) (token.Pos, bool) {
	if fd.Recv == nil || name == "" {
		return token.NoPos, false
	}
	obj := receiverTypeObj(pass, fd)
	if obj == nil {
		return token.NoPos, false
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return token.NoPos, false
	}
	for i := 0; i < st.NumFields(); i++ {
		fld := st.Field(i)
		if fld.Name() != name {
			continue
		}
		if _, isMu := isMutexType(fld.Type()); !isMu {
			return token.NoPos, false
		}
		return fld.Pos(), true
	}
	return token.NoPos, false
}

// rankedMutex describes one "//chromevet:lockrank N" mutex field: its
// position in the module's acquisition order. Nested acquisitions must
// strictly increase in rank (DESIGN.md §11.3).
type rankedMutex struct {
	pkgPath string
	name    string
	rank    int
}

// collectLockRanks gathers the module's validly ranked mutex fields, keyed
// by the declaring field identifier's position. Missing and malformed
// annotations are reported by lockorder's per-package struct walk, not
// here.
func collectLockRanks(l *Loader, p *Package) map[token.Pos]rankedMutex {
	out := map[token.Pos]rankedMutex{}
	for _, q := range modulePackages(l, p) {
		for _, f := range q.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, fld := range st.Fields.List {
					if _, isMu := isMutexType(q.Info.TypeOf(fld.Type)); !isMu {
						continue
					}
					arg, ok := directiveArg("//chromevet:lockrank", fld.Doc, fld.Comment)
					if !ok {
						continue
					}
					rank, err := strconv.Atoi(arg)
					if err != nil {
						continue
					}
					for _, name := range fld.Names {
						out[name.Pos()] = rankedMutex{pkgPath: q.Path, name: name.Name, rank: rank}
					}
				}
				return true
			})
		}
	}
	return out
}
