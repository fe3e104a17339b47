// Package linttest is an analysistest-style harness for the in-repo
// lint framework: it loads a testdata module, runs analyzers over it,
// and compares the diagnostics against `// want "regexp"` comments on
// the expecting lines — the exact convention of
// golang.org/x/tools/go/analysis/analysistest, which this repo cannot
// depend on.
package linttest

import (
	"go/token"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
)

// wantRE accepts both quoting styles of analysistest: double-quoted
// patterns and backquoted ones (no escaping needed for regexps full of
// backslashes).
var wantRE = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// expectation is one `// want` pattern with its location.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// RunModule loads the module rooted at dir (a testdata mini-module,
// with or without a go.mod), runs the analyzers over it, and checks the
// merged diagnostics against // want comments collected from every
// package of the module.  Any diagnostic no // want claims fails the
// test, as does any // want no diagnostic matches.
func RunModule(t *testing.T, dir string, analyzers ...*lint.Analyzer) {
	t.Helper()
	m, err := lint.LoadModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunModuleAnalyzers(m, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	var expects []*expectation
	for _, pkg := range m.Packages {
		expects = append(expects, collectWants(t, pkg)...)
	}
	for _, d := range diags {
		if !claim(expects, d.Pos, d.Message) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.pattern)
		}
	}
}

func collectWants(t *testing.T, pkg *lint.Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRE.FindAllStringSubmatch(text, -1) {
					pat := m[1]
					if m[2] != "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	return out
}

func claim(expects []*expectation, pos token.Position, msg string) bool {
	for _, e := range expects {
		if !e.matched && e.file == pos.Filename && e.line == pos.Line && e.pattern.MatchString(msg) {
			e.matched = true
			return true
		}
	}
	return false
}
