package main

import (
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// want is one expectation parsed from a fixture "// want analyzer "re""
// comment.
type want struct {
	file     string
	line     int
	analyzer string
	re       *regexp.Regexp
}

var wantRE = regexp.MustCompile(`//\s*want\s+(\w+)\s+"((?:[^"\\]|\\.)*)"`)

// parseWants extracts want comments from every .go file in dir.
func parseWants(t *testing.T, dir string) []want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir %s: %v", dir, err)
	}
	var out []want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				pattern := strings.ReplaceAll(m[2], `\"`, `"`)
				re, err := regexp.Compile(pattern)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, pattern, err)
				}
				out = append(out, want{file: path, line: i + 1, analyzer: m[1], re: re})
			}
		}
	}
	return out
}

// repoRoot locates the module root (two levels above cmd/chromevet).
func repoRoot(t *testing.T) string {
	t.Helper()
	root, _, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// fixtureLoader builds a loader rooted at the real module with every
// fixture package mapped under a realistic import path, so fixtures can
// import real packages (chrome/internal/mem, chrome/internal/cache) while
// living in testdata.
func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	root := repoRoot(t)
	l := NewLoader(root, "chrome")
	base := filepath.Join(root, "cmd", "chromevet", "testdata", "src")
	l.Override("chrome/internal/sim/vetfixture", filepath.Join(base, "maprange"))
	l.Override("chrome/internal/vetfixture/globalrand", filepath.Join(base, "globalrand"))
	l.Override("chrome/internal/vetfixture/walltime", filepath.Join(base, "walltime"))
	l.Override("chrome/internal/vetfixture/narrowing", filepath.Join(base, "narrowing"))
	l.Override("chrome/internal/vetfixture/floateq", filepath.Join(base, "floateq"))
	l.Override("chrome/internal/policy", filepath.Join(base, "policyreg", "policy"))
	l.Override("chrome/internal/experiments", filepath.Join(base, "policyreg", "experiments"))
	l.Override("chrome/internal/vetfixture/globalmut", filepath.Join(base, "globalmut"))
	l.Override("chrome/internal/policy/parfixture", filepath.Join(base, "aliasshare"))
	l.Override("chrome/internal/cache/parfixture", filepath.Join(base, "concprim"))
	l.Override("chrome/internal/vetfixture/hotalloc", filepath.Join(base, "hotalloc"))
	l.Override("chrome/internal/vetfixture/hotiface", filepath.Join(base, "hotiface"))
	l.Override("chrome/internal/vetfixture/frozenshare", filepath.Join(base, "frozenshare"))
	l.Override("chrome/internal/vetfixture/units", filepath.Join(base, "units"))
	l.Override("chrome/internal/vetfixture/hwwidth", filepath.Join(base, "hwwidth"))
	l.Override("chrome/internal/vetfixture/allowedge", filepath.Join(base, "allowedge"))
	l.Override("chrome/internal/vetfixture/joinsync", filepath.Join(base, "joinsync"))
	l.Override("chrome/internal/vetfixture/guardedby", filepath.Join(base, "guardedby"))
	l.Override("chrome/internal/vetfixture/lockorder", filepath.Join(base, "lockorder"))
	l.Override("chrome/internal/vetfixture/hotblock", filepath.Join(base, "hotblock"))
	return l
}

// TestFixtures loads each deliberately-broken fixture and checks that the
// full analyzer suite reports exactly the findings the fixture's want
// comments describe — each fixture triggers its intended analyzer and no
// other.
func TestFixtures(t *testing.T) {
	l := fixtureLoader(t)
	base := filepath.Join(repoRoot(t), "cmd", "chromevet", "testdata", "src")
	cases := []struct {
		name      string   // fixture dir and intended analyzer
		paths     []string // import paths loaded and analyzed together
		dirs      []string // fixture dirs holding want comments
		analyzers []string // analyzer names want comments may use (default: {name})
	}{
		{name: "maprange", paths: []string{"chrome/internal/sim/vetfixture"}, dirs: []string{"maprange"}},
		{name: "globalrand", paths: []string{"chrome/internal/vetfixture/globalrand"}, dirs: []string{"globalrand"}},
		{name: "walltime", paths: []string{"chrome/internal/vetfixture/walltime"}, dirs: []string{"walltime"}},
		{name: "narrowing", paths: []string{"chrome/internal/vetfixture/narrowing"}, dirs: []string{"narrowing"}},
		{name: "floateq", paths: []string{"chrome/internal/vetfixture/floateq"}, dirs: []string{"floateq"}},
		{name: "policyreg", paths: []string{"chrome/internal/policy"}, dirs: []string{filepath.Join("policyreg", "policy")}},
		{name: "globalmut", paths: []string{"chrome/internal/vetfixture/globalmut"}, dirs: []string{"globalmut"}},
		{name: "aliasshare", paths: []string{"chrome/internal/policy/parfixture"}, dirs: []string{"aliasshare"}},
		// The guarded struct's bare mutex also trips lockorder's
		// annotation audit, deliberately: certified packages rank every
		// mutex, even ones that shouldn't exist in the first place.
		{name: "concprim", paths: []string{"chrome/internal/cache/parfixture"}, dirs: []string{"concprim"},
			analyzers: []string{"concprim", "lockorder"}},
		{name: "hotalloc", paths: []string{"chrome/internal/vetfixture/hotalloc"}, dirs: []string{"hotalloc"}},
		{name: "hotiface", paths: []string{"chrome/internal/vetfixture/hotiface"}, dirs: []string{"hotiface"}},
		{name: "frozenshare", paths: []string{"chrome/internal/vetfixture/frozenshare"}, dirs: []string{"frozenshare"}},
		{name: "units", paths: []string{"chrome/internal/vetfixture/units"}, dirs: []string{"units"}},
		{name: "hwwidth", paths: []string{"chrome/internal/vetfixture/hwwidth"}, dirs: []string{"hwwidth"}},
		{name: "joinsync", paths: []string{"chrome/internal/vetfixture/joinsync"}, dirs: []string{"joinsync"}},
		// The suppression audit: misplaced and typo'd allows are findings of
		// the pseudo-analyzer "allow"; the hazards they fail to cover
		// surface as ordinary narrowing findings. A stale joinsync allow
		// proves used-tracking covers the goroutine-lifecycle check too.
		{name: "allowedge", paths: []string{"chrome/internal/vetfixture/allowedge"}, dirs: []string{"allowedge"},
			analyzers: []string{"narrowing", "allow", "guardedby", "lockorder", "hotblock"}},
		{name: "guardedby", paths: []string{"chrome/internal/vetfixture/guardedby"}, dirs: []string{"guardedby"}},
		{name: "lockorder", paths: []string{"chrome/internal/vetfixture/lockorder"}, dirs: []string{"lockorder"}},
		// The sleeping case deliberately also trips walltime: the
		// wall-clock ban applies to internal packages hot or not.
		{name: "hotblock", paths: []string{"chrome/internal/vetfixture/hotblock"}, dirs: []string{"hotblock"},
			analyzers: []string{"hotblock", "walltime"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			allowed := map[string]bool{tc.name: true}
			for _, a := range tc.analyzers {
				allowed[a] = true
			}
			var pkgs []*Package
			for _, path := range tc.paths {
				pkg, err := l.Load(path)
				if err != nil {
					t.Fatalf("loading fixture %s: %v", tc.name, err)
				}
				pkgs = append(pkgs, pkg)
			}
			findings := RunAnalyzers(l, pkgs)

			var wants []want
			for _, d := range tc.dirs {
				wants = append(wants, parseWants(t, filepath.Join(base, d))...)
			}
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no want comments", tc.name)
			}

			matched := make([]bool, len(findings))
			for _, w := range wants {
				if !allowed[w.analyzer] {
					t.Errorf("%s:%d: want comment names analyzer %q, fixture is for %q",
						w.file, w.line, w.analyzer, tc.name)
					continue
				}
				found := false
				for i, f := range findings {
					if matched[i] || f.Analyzer != w.analyzer ||
						f.Pos.Filename != w.file || f.Pos.Line != w.line {
						continue
					}
					if !w.re.MatchString(f.Message) {
						continue
					}
					matched[i], found = true, true
					break
				}
				if !found {
					t.Errorf("%s:%d: expected %s finding matching %q, got none",
						w.file, w.line, w.analyzer, w.re)
				}
			}
			for i, f := range findings {
				if !matched[i] {
					t.Errorf("unexpected finding: %s", f)
				}
			}
		})
	}
}

// TestAllowSuppression checks that the annotated fixture lines really are
// carrying suppressions (rather than the analyzer missing them): stripping
// allow comments must surface new findings.
func TestAllowSuppression(t *testing.T) {
	l := fixtureLoader(t)
	pkg, err := l.Load("chrome/internal/vetfixture/narrowing")
	if err != nil {
		t.Fatal(err)
	}
	// The clamped() helper converts an unbounded-looking uint64; the only
	// thing keeping it quiet is the allow comment.
	pkg.allow = map[string]map[int][]*allowRecord{}
	pkg.allowRecords = nil
	findings := RunAnalyzers(l, []*Package{pkg})
	found := false
	for _, f := range findings {
		if f.Analyzer == "narrowing" && strings.Contains(f.Message, "uint8") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a suppressed uint8 narrowing finding after clearing allows; got %v", findings)
	}
}

// TestRepoIsClean runs the full suite over the real module — the same
// check CI performs with `go run ./cmd/chromevet ./...` — so a regression
// fails go test as well.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide analysis in -short mode")
	}
	root := repoRoot(t)
	_, modPath, err := FindModule(root)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(root, modPath)
	paths, err := expandPatterns(root, modPath, root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			t.Fatalf("loading %s: %v", p, err)
		}
		pkgs = append(pkgs, pkg)
	}
	findings := RunAnalyzers(l, pkgs)
	for _, f := range findings {
		t.Errorf("finding on clean tree: %s", f)
	}
	if len(pkgs) < 15 {
		t.Errorf("expected to analyze at least 15 packages, got %d", len(pkgs))
	}
}

// TestSelfAuditClean holds chromevet to its own rules: the per-package
// suite with scopes bypassed, over cmd/chromevet itself — the same check
// CI performs with `go run ./cmd/chromevet -self`.
func TestSelfAuditClean(t *testing.T) {
	root := repoRoot(t)
	_, modPath, err := FindModule(root)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(root, modPath)
	pkg, err := l.Load(modPath + "/cmd/chromevet")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range RunSelfAudit(l, []*Package{pkg}) {
		t.Errorf("self-audit finding: %s", f)
	}
}

// TestExpandPatterns covers the package pattern expansion.
func TestExpandPatterns(t *testing.T) {
	root := repoRoot(t)
	paths, err := expandPatterns(root, "chrome", root, []string{"./internal/..."})
	if err != nil {
		t.Fatal(err)
	}
	wantSome := map[string]bool{"chrome/internal/cache": false, "chrome/internal/sim": false}
	for _, p := range paths {
		if !strings.HasPrefix(p, "chrome/internal/") {
			t.Errorf("pattern ./internal/... matched %s", p)
		}
		if _, ok := wantSome[p]; ok {
			wantSome[p] = true
		}
		if strings.Contains(p, "testdata") {
			t.Errorf("testdata package leaked into expansion: %s", p)
		}
	}
	for p, seen := range wantSome {
		if !seen {
			t.Errorf("expected %s in expansion, got %v", p, paths)
		}
	}
	single, err := expandPatterns(root, "chrome", root, []string{"./internal/cache"})
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != 1 || single[0] != "chrome/internal/cache" {
		t.Errorf("single-dir pattern: got %v", single)
	}
}

// TestWriteJSON pins the -json wire format CI's annotation step parses:
// cwd-relative file paths, 1-based line/column, and an empty (non-null)
// array on a clean tree.
func TestWriteJSON(t *testing.T) {
	findings := []Finding{{
		Analyzer: "narrowing",
		Pos:      token.Position{Filename: "/work/repo/internal/sim/clock.go", Line: 3, Column: 7},
		Message:  "uint8(...) narrows",
	}}
	var buf strings.Builder
	if err := writeJSON(&buf, "/work/repo", findings); err != nil {
		t.Fatal(err)
	}
	var got []jsonFinding
	if err := json.Unmarshal([]byte(buf.String()), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	want := []jsonFinding{{File: "internal/sim/clock.go", Line: 3, Column: 7, Analyzer: "narrowing", Message: "uint8(...) narrows"}}
	if len(got) != 1 || got[0] != want[0] {
		t.Errorf("writeJSON = %+v, want %+v", got, want)
	}

	buf.Reset()
	if err := writeJSON(&buf, "/work/repo", nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Errorf("clean tree should emit an empty array, got %q", buf.String())
	}
}

var _ = fmt.Sprintf // keep fmt imported for debugging edits
