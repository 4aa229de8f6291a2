package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
)

// A Package is one typechecked module package.
type Package struct {
	Path  string
	Name  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// Target marks packages named by the load patterns; dependencies are
	// typechecked (so cross-package analyses see their bodies) but only
	// targets are analyzed and reported on.
	Target bool

	// Deterministic is set by a //schedlint:deterministic directive in any
	// file's package doc comment. The determinism analyzer forbids wall
	// clocks and the global math/rand RNG in such packages.
	Deterministic bool

	// ignores maps file:line to the analyzer names suppressed there by
	// //schedlint:ignore comments. An ignore covers its own line and the
	// next line, so it works both as a trailing comment and on the line
	// above the finding.
	ignores map[ignoreKey]map[string]bool

	// badDirectives are malformed //schedlint: comments, reported as
	// findings of the pseudo-analyzer "schedlint".
	badDirectives []Finding
}

type ignoreKey struct {
	file string
	line int
}

func (p *Package) ignored(analyzer string, pos token.Position) bool {
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if set := p.ignores[ignoreKey{pos.Filename, line}]; set[analyzer] || set["*"] {
			return true
		}
	}
	return false
}

// A Program is a load result: the module packages of interest plus every
// module dependency, all sharing one FileSet and one types universe, so a
// *types.Func resolved in one package is the same object in every other.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package // dependency order: imports precede importers

	byPath map[string]*Package

	// hotpath annotation seeds: functions whose declaration carries
	// //schedlint:hotpath.
	hotSeeds map[*types.Func]bool

	// funcDecls maps every module function/method object to its
	// declaration, for call-graph walks.
	funcDecls map[*types.Func]*ast.FuncDecl
	declPkg   map[*types.Func]*Package

	hotOnce sync.Once
	hot     map[*types.Func]string // func -> name of the seed that reaches it

	lockOnce sync.Once
	locks    *lockInfo

	// root is the module's root package, if loaded; the unused analyzer
	// reports only when it is a load target.
	root *Package

	unusedOnce sync.Once
	used       map[*types.Func]bool          // funcs referenced outside their own body
	ifaces     map[string][]*types.Interface // interfaces by method name
}

// FuncDecl returns the declaration of fn if fn is a module function loaded
// into the program, else nil.
func (prog *Program) FuncDecl(fn *types.Func) *ast.FuncDecl { return prog.funcDecls[fn] }

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Module     *struct{ Path string }
}

const listFields = "ImportPath,Name,Dir,Export,Standard,DepOnly,GoFiles,Module"

func goList(dir string, args ...string) ([]*listPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-export", "-deps", "-json=" + listFields}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listPkg
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// Load typechecks the packages matched by patterns (plus their in-module
// dependencies) rooted at dir, using `go list -export` for import
// resolution: stdlib dependencies are imported from compiler export data,
// module packages from source, in dependency order, so all packages share
// one types universe.
func Load(dir string, patterns ...string) (*Program, error) {
	pkgs, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	prog := newProgram()
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	imp := newImporter(prog, exports)
	for _, p := range pkgs {
		if p.Standard || p.Name == "" {
			continue
		}
		if err := prog.addPackage(p, imp); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

func newProgram() *Program {
	return &Program{
		Fset:      token.NewFileSet(),
		byPath:    make(map[string]*Package),
		hotSeeds:  make(map[*types.Func]bool),
		funcDecls: make(map[*types.Func]*ast.FuncDecl),
		declPkg:   make(map[*types.Func]*Package),
	}
}

// addPackage parses, typechecks, and directive-scans one package. Its
// in-module imports must already have been added (dependency order).
func (prog *Program) addPackage(p *listPkg, imp types.Importer) error {
	files := make([]*ast.File, 0, len(p.GoFiles))
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(prog.Fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(p.ImportPath, prog.Fset, files, info)
	if err != nil {
		return fmt.Errorf("typecheck %s: %v", p.ImportPath, err)
	}
	pkg := &Package{
		Path:    p.ImportPath,
		Name:    tpkg.Name(),
		Dir:     p.Dir,
		Files:   files,
		Types:   tpkg,
		Info:    info,
		Target:  !p.DepOnly,
		ignores: make(map[ignoreKey]map[string]bool),
	}
	prog.Pkgs = append(prog.Pkgs, pkg)
	prog.byPath[p.ImportPath] = pkg
	if p.Module != nil && p.Module.Path == p.ImportPath {
		prog.root = pkg
	}
	prog.scanDirectives(pkg)
	prog.indexFuncs(pkg)
	return nil
}

// indexFuncs records every function and method declaration of the package
// and collects //schedlint:hotpath seeds.
func (prog *Program) indexFuncs(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			prog.funcDecls[fn] = fd
			prog.declPkg[fn] = pkg
			if fd.Doc != nil {
				for _, c := range fd.Doc.List {
					if strings.TrimSpace(c.Text) == "//schedlint:hotpath" {
						prog.hotSeeds[fn] = true
					}
				}
			}
		}
	}
}

var knownAnalyzers = map[string]bool{
	"determinism": true,
	"hotpath":     true,
	"ctxflow":     true,
	"lockcheck":   true,
	"unused":      true,
}

// scanDirectives processes every //schedlint: comment in the package:
// package-level determinism declarations, ignore suppressions, and — for
// anything malformed — findings against the pseudo-analyzer "schedlint".
func (prog *Program) scanDirectives(pkg *Package) {
	for _, f := range pkg.Files {
		if f.Doc != nil {
			for _, c := range f.Doc.List {
				if strings.TrimSpace(c.Text) == "//schedlint:deterministic" {
					pkg.Deterministic = true
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, "//schedlint:") {
					continue
				}
				pos := prog.Fset.Position(c.Pos())
				directive := strings.TrimPrefix(text, "//schedlint:")
				switch {
				case directive == "deterministic":
					if !inGroup(f.Doc, c) {
						pkg.badDirective(pos, "//schedlint:deterministic must appear in a package doc comment")
					}
				case directive == "hotpath":
					// Validated against function docs in indexFuncs; a
					// stray hotpath directive seeds nothing, which is
					// worth failing loudly over.
					if !isFuncDoc(f, c) {
						pkg.badDirective(pos, "//schedlint:hotpath must appear in a function's doc comment")
					}
				case strings.HasPrefix(directive, "ignore"):
					rest := strings.TrimPrefix(directive, "ignore")
					fields := strings.Fields(rest)
					if len(fields) < 2 || !knownAnalyzers[fields[0]] {
						pkg.badDirective(pos, "malformed ignore %q: want //schedlint:ignore <analyzer> <reason>, analyzer one of determinism|hotpath|ctxflow|lockcheck|unused", text)
						continue
					}
					key := ignoreKey{pos.Filename, pos.Line}
					if pkg.ignores[key] == nil {
						pkg.ignores[key] = make(map[string]bool)
					}
					pkg.ignores[key][fields[0]] = true
				default:
					pkg.badDirective(pos, "unknown schedlint directive %q: want deterministic, hotpath, or ignore", text)
				}
			}
		}
	}
}

func (pkg *Package) badDirective(pos token.Position, format string, args ...any) {
	pkg.badDirectives = append(pkg.badDirectives, Finding{
		File:     pos.Filename,
		Line:     pos.Line,
		Col:      pos.Column,
		Analyzer: "schedlint",
		Message:  fmt.Sprintf(format, args...),
	})
}

func inGroup(cg *ast.CommentGroup, c *ast.Comment) bool {
	if cg == nil {
		return false
	}
	for _, cc := range cg.List {
		if cc == c {
			return true
		}
	}
	return false
}

func isFuncDoc(f *ast.File, c *ast.Comment) bool {
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && inGroup(fd.Doc, c) {
			return true
		}
	}
	return false
}

// newImporter builds the loader's import resolver: module packages come
// from the program (already typechecked from source), the stdlib from gc
// export data produced by `go list -export`.
func newImporter(prog *Program, exports map[string]string) types.Importer {
	gc := importer.ForCompiler(prog.Fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return importerFunc(func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		if p, ok := prog.byPath[path]; ok {
			return p.Types, nil
		}
		return gc.Import(path)
	})
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
