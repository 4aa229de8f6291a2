// This file is the analyzer framework (doc.go holds the package doc).
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis
// API (Analyzer / Pass / Diagnostic) so the analyzers read like standard
// vet passes and could be ported to a multichecker verbatim. It is a
// stdlib-only reimplementation because this module carries zero external
// dependencies: packages are loaded with `go list -export` plus the
// go/importer gc importer instead of go/packages (see load.go). One
// deliberate deviation: a Pass sees the whole loaded Program, not just its
// package — the hotpath and lockcheck analyzers need a module-wide call
// graph and field census, which x/tools would express through Facts.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// An Analyzer describes one schedlint analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, -json output, and
	// //schedlint:ignore comments. It must be a single lowercase word.
	Name string

	// Doc is a one-paragraph description of the invariant the analyzer
	// enforces.
	Doc string

	// Run applies the analyzer to one package. It reports findings via
	// pass.Reportf and returns an error only for internal failures (a
	// finding is never an error).
	Run func(pass *Pass) error
}

// A Pass provides one analyzer run over one package with the information
// it needs: the package's syntax and types, plus the whole loaded program
// for cross-package analyses.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package

	report func(Diagnostic)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one raw finding, before ignore-comment filtering.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Finding is one filtered, position-resolved diagnostic — the unit of
// schedlint's text and -json output.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Analyzers returns the full schedlint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Determinism, Hotpath, Ctxflow, Lockcheck, Unused}
}

// Run applies the analyzers to every target package of the program (loaded
// dependencies that were not named by the load patterns are typechecked
// but not analyzed), filters findings through //schedlint:ignore comments,
// reports malformed ignore comments, and returns the findings sorted by
// position. Run itself must be deterministic — schedlint lints for
// map-iteration order, so it cannot depend on one.
func Run(prog *Program, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range prog.Pkgs {
		if !pkg.Target {
			continue
		}
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg}
			pass.report = func(d Diagnostic) {
				pos := prog.Fset.Position(d.Pos)
				if pkg.ignored(a.Name, pos) {
					return
				}
				findings = append(findings, Finding{
					File:     pos.Filename,
					Line:     pos.Line,
					Col:      pos.Column,
					Analyzer: a.Name,
					Message:  d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
		// Malformed //schedlint: comments are findings themselves: a typo
		// in an ignore must fail the gate, not silently suppress nothing.
		findings = append(findings, pkg.badDirectives...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return findings, nil
}
