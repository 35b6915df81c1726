// Package analysistest runs an analyzer over a testdata module and checks its
// diagnostics against // want "regexp" comments, mirroring
// golang.org/x/tools/go/analysis/analysistest on the stdlib-only framework.
//
// A testdata tree is a tiny self-contained module:
//
//	testdata/src/a/go.mod   (module a — stdlib imports only)
//	testdata/src/a/a.go     (patterns that must diagnose, marked // want)
//	testdata/src/a/clean.go (patterns that must stay silent)
//
// Each want comment sits on the line it expects a diagnostic for and holds
// one or more quoted regular expressions:
//
//	time.Now() // want `wall-clock read`
//
// Every expectation must be matched by a diagnostic and every diagnostic by
// an expectation, so both false negatives and false positives fail the test.
package analysistest

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// wantRE captures the quoted expectations of a want comment. Both `...` and
// "..." quoting are accepted.
var wantRE = regexp.MustCompile("//\\s*want\\s+((?:(?:`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")\\s*)+)")

var quotedRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

// Run loads dir (a testdata module root) and checks a's diagnostics against
// the want comments in its files.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	units, err := load.Load(dir, false, "./...")
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	if len(units) == 0 {
		t.Fatalf("no packages under %s", dir)
	}
	diags, err := analysis.Run(units, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	var wants []*expectation
	for _, u := range units {
		for _, f := range u.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := u.Fset.Position(c.Pos())
					for _, q := range quotedRE.FindAllString(m[1], -1) {
						text, err := unquote(q)
						if err != nil {
							t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, q, err)
						}
						re, err := regexp.Compile(text)
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, text, err)
						}
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}

	for _, d := range diags {
		if !claim(wants, d) {
			t.Errorf("unexpected diagnostic: %v", d)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

func claim(wants []*expectation, d analysis.Diagnostic) bool {
	for _, w := range wants {
		if !w.used && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.used = true
			return true
		}
	}
	return false
}

func unquote(q string) (string, error) {
	if strings.HasPrefix(q, "`") {
		return strings.Trim(q, "`"), nil
	}
	return strconv.Unquote(q)
}
