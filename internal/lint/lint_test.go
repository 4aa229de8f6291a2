package lint

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestDeterminism(t *testing.T) { RunTest(t, Determinism, "determinism") }

// TestDeterminismNoDirective: without //schedlint:deterministic the
// clock/RNG rule is off but map order feeding output is still flagged.
func TestDeterminismNoDirective(t *testing.T) { RunTest(t, Determinism, "detplain") }

func TestHotpath(t *testing.T) { RunTest(t, Hotpath, "hotpath") }

func TestCtxflow(t *testing.T) { RunTest(t, Ctxflow, "ctxflow") }

func TestLockcheck(t *testing.T) { RunTest(t, Lockcheck, "lockcheck") }

func TestUnused(t *testing.T) { RunTest(t, Unused, "unused") }

// TestUnusedSilentOnPartialLoad: loading one package of the module hides
// its callers in the other packages, so unused must report nothing rather
// than flag every function called from elsewhere. The load is CI's
// determinism self-test load.
func TestUnusedSilentOnPartialLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks part of the module")
	}
	prog, err := Load("../..", "./internal/model")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Run(prog, []*Analyzer{Unused})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("partial load reported %s", f)
	}
	// The silence is the gate's doing: within this load, model has
	// functions that nothing references.
	prog.collectUses()
	unreached := 0
	for fn := range prog.funcDecls {
		if !prog.used[fn] && fn.Exported() {
			unreached++
		}
	}
	if unreached == 0 {
		t.Fatal("every model function is referenced inside model; the partial-load case proves nothing")
	}
}

// TestDirectiveGrammar checks that malformed //schedlint: comments are
// findings: a typo must fail the gate, not silently suppress nothing.
// (The want-comment harness cannot express these — the finding lands on
// the directive's own line — so they are asserted directly.)
func TestDirectiveGrammar(t *testing.T) {
	prog, err := LoadDir("testdata/src/directives")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Run(prog, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	wants := []string{
		"//schedlint:hotpath must appear in a function's doc comment",
		"//schedlint:deterministic must appear in a package doc comment",
		`malformed ignore "//schedlint:ignore bogus not a real analyzer"`,
		`malformed ignore "//schedlint:ignore hotpath"`,
		`unknown schedlint directive "//schedlint:frobnicate"`,
	}
	if len(findings) != len(wants) {
		t.Fatalf("got %d findings, want %d:\n%v", len(findings), len(wants), findings)
	}
	for _, want := range wants {
		found := false
		for _, f := range findings {
			if f.Analyzer == "schedlint" && strings.Contains(f.Message, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no schedlint finding contains %q; got %v", want, findings)
		}
	}
}

// TestRepoClean is the in-process version of the CI gate: the whole
// module must produce zero findings.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the entire module")
	}
	prog, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Run(prog, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("empty findings serialize to %q, want []", got)
	}

	buf.Reset()
	in := []Finding{{File: "a.go", Line: 3, Col: 7, Analyzer: "hotpath", Message: "make allocates"}}
	if err := WriteJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out []Finding
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(out) != 1 || out[0] != in[0] {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
}
