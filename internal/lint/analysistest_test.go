package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// This file is the repository's stand-in for
// golang.org/x/tools/go/analysis/analysistest: testdata packages under
// testdata/src/<name> annotated with `// want "regexp"` comments, loaded
// and analyzed exactly like real packages (same driver, same ignore
// filtering), with diagnostics matched one-to-one against expectations.

// stdExports lazily builds the stdlib export-data index used to typecheck
// testdata packages (which may import anything in std, but nothing else).
var stdExports = sync.OnceValues(func() (map[string]string, error) {
	pkgs, err := goList(".", "std")
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
})

// LoadDir typechecks a single directory of Go files as the package named
// by its base name, resolving imports from the standard library only.
// It exists for analysistest-style testdata, which lives outside the
// module proper.
func LoadDir(dir string) (*Program, error) {
	exports, err := stdExports()
	if err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	// The testdata package stands in for a whole module: it is its root.
	p := &listPkg{ImportPath: filepath.Base(dir), Name: filepath.Base(dir), Dir: dir}
	p.Module = &struct{ Path string }{p.ImportPath}
	for _, ent := range ents {
		if !ent.IsDir() && strings.HasSuffix(ent.Name(), ".go") {
			p.GoFiles = append(p.GoFiles, ent.Name())
		}
	}
	if len(p.GoFiles) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	prog := newProgram()
	if err := prog.addPackage(p, newImporter(prog, exports)); err != nil {
		return nil, err
	}
	return prog, nil
}

// expectation is one `// want "re"` clause.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
}

var wantRe = regexp.MustCompile(`//\s*want\b(.*)$`)

// RunTest loads testdata/src/<pkg>, applies the analyzer through the
// standard driver (so //schedlint:ignore suppression is exercised), and
// checks findings against `// want` expectations: each expectation must be
// matched by exactly one finding on its line, and no unexpected findings
// may remain. Multiple clauses on one line (`// want "a" "b"`) expect
// multiple findings.
func RunTest(t *testing.T, a *Analyzer, pkg string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", pkg)
	prog, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	findings, err := Run(prog, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, pkg, err)
	}
	expectations := parseWants(t, prog)

	matched := make([]bool, len(expectations))
finding:
	for _, f := range findings {
		for i, exp := range expectations {
			if !matched[i] && exp.file == f.File && exp.line == f.Line && exp.re.MatchString(f.Message) {
				matched[i] = true
				continue finding
			}
		}
		t.Errorf("unexpected finding: %s", f)
	}
	for i, exp := range expectations {
		if !matched[i] {
			t.Errorf("%s:%d: no finding matched %q", exp.file, exp.line, exp.raw)
		}
	}
}

func parseWants(t *testing.T, prog *Program) []expectation {
	t.Helper()
	var exps []expectation
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					for _, raw := range splitQuoted(t, pos, m[1]) {
						re, err := regexp.Compile(raw)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", pos, raw, err)
						}
						exps = append(exps, expectation{pos.Filename, pos.Line, re, raw})
					}
				}
			}
		}
	}
	sort.Slice(exps, func(i, j int) bool {
		if exps[i].file != exps[j].file {
			return exps[i].file < exps[j].file
		}
		return exps[i].line < exps[j].line
	})
	return exps
}

// splitQuoted extracts the quoted clauses of a want comment tail.
func splitQuoted(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' {
			t.Fatalf("%s: malformed want clause at %q (expected quoted regexp)", pos, s)
		}
		end := 1
		for end < len(s) && (s[end] != '"' || s[end-1] == '\\') {
			end++
		}
		if end == len(s) {
			t.Fatalf("%s: unterminated want regexp %q", pos, s)
		}
		raw, err := strconv.Unquote(s[:end+1])
		if err != nil {
			t.Fatalf("%s: bad want regexp %q: %v", pos, s[:end+1], err)
		}
		out = append(out, raw)
		s = strings.TrimSpace(s[end+1:])
	}
	return out
}
