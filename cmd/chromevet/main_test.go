package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
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

// sharedLoader is the one Loader of this test binary, so its FileSet and
// source importer type-check the standard library from GOROOT once for
// every test rather than once per test. The fixtures' overrides load them
// under paths no module package uses.
var sharedLoader = sync.OnceValues(func() (*Loader, error) {
	root, modPath, err := FindModule(".")
	if err != nil {
		return nil, err
	}
	return NewLoader(root, modPath), nil
})

func testLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestFixtures loads each deliberately-broken fixture and checks that the
// full analyzer suite reports exactly the findings the fixture's want
// comments describe — each fixture triggers its intended analyzer and no
// other. Every analyzer of the suite must have a row. Each fixture is
// loaded under a realistic import path, so the analyzers' scopes apply to
// fixtures living in testdata.
func TestFixtures(t *testing.T) {
	l := testLoader(t)
	base := filepath.Join(l.ModRoot, "cmd", "chromevet", "testdata", "src")
	cases := []struct {
		name string // fixture dir under testdata/src and intended analyzer
		path string // import path the fixture is loaded under
	}{
		{name: "maprange", path: "chrome/internal/sim/vetfixture"},
		{name: "concprim", path: "chrome/internal/cache/parfixture"},
		{name: "hotblock", path: "chrome/internal/vetfixture/hotblock"},
	}
	rows := map[string]bool{}
	for _, tc := range cases {
		rows[tc.name] = true
		l.Override(tc.path, filepath.Join(base, tc.name))
	}
	for _, a := range Analyzers() {
		if !rows[a.Name] {
			t.Errorf("analyzer %q has no TestFixtures row: add a fixture under testdata/src/%s", a.Name, a.Name)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkg, err := l.Load(tc.path)
			if err != nil {
				t.Fatalf("loading fixture %s: %v", tc.name, err)
			}
			findings := RunAnalyzers(l, []*Package{pkg})

			wants := parseWants(t, filepath.Join(base, tc.name))
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no want comments", tc.name)
			}

			matched := make([]bool, len(findings))
			for _, w := range wants {
				if w.analyzer != tc.name {
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

// TestRepoIsClean runs checkModule, the check `go run ./cmd/chromevet`
// performs, over the real module, so a regression fails go test. It also
// holds checkModule to its package set: exactly the packages the go
// command lists under internal/ and cmd/ — nothing from testdata, and
// neither the root package nor the separate bench module.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide analysis in -short mode")
	}
	l := testLoader(t)
	findings, paths, err := checkModule(l)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("finding on clean tree: %s", f)
	}

	cmd := exec.Command("go", "list", "./internal/...", "./cmd/...")
	cmd.Dir = l.ModRoot
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	want := strings.Fields(string(out))
	slices.Sort(want)
	if !slices.Equal(paths, want) {
		t.Errorf("checkModule checked %v\nwant the packages under internal/ and cmd/: %v", paths, want)
	}
	for _, p := range paths {
		under := strings.HasPrefix(p, "chrome/internal/") || strings.HasPrefix(p, "chrome/cmd/")
		if !under || strings.Contains(p, "/testdata") {
			t.Errorf("checkModule checked %s, outside internal/ and cmd/ or in testdata", p)
		}
	}
}

// TestSelfAuditClean holds chromevet to its own rules: the per-package
// suite with scopes bypassed, over cmd/chromevet itself.
func TestSelfAuditClean(t *testing.T) {
	l := testLoader(t)
	pkg, err := l.Load(l.ModPath + "/cmd/chromevet")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range RunSelfAudit(l, []*Package{pkg}) {
		t.Errorf("self-audit finding: %s", f)
	}
}
