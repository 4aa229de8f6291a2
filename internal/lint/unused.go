package lint

import (
	"go/ast"
	"go/types"
)

// Unused flags every function and method of a non-main package that no
// loaded non-test code references: code only tests reach belongs in a
// _test.go file. A reference is any use of the function's object (a call,
// a method value, a function stored in a table), matched through the
// shared types universe, so a call from another package counts and a
// generic function's instantiations count for their origin. A function's
// references to itself do not count.
//
// Roots, never flagged:
//
//   - the exported API of the module's root package: its exported
//     functions and the exported methods of its exported types;
//   - init functions (main packages are not checked at all);
//   - methods that implement an interface type of the loaded universe
//     (error, fmt.Stringer, heap.Interface, http.Handler, io.Writer, the
//     module's own). An interface the standard library declares inside a
//     function body is invisible, so a method reached only through one
//     (Unwrap for http.ResponseController) needs a reasoned ignore.
//
// It reports only when the load covers the whole module, meaning the root
// package is a load target. On a partial load (schedlint ./internal/model)
// callers in other packages are invisible, so it stays silent.
var Unused = &Analyzer{
	Name: "unused",
	Doc:  "flags functions and methods that no non-test code in the module references",
	Run:  runUnused,
}

func runUnused(pass *Pass) error {
	prog := pass.Prog
	if prog.root == nil || !prog.root.Target || pass.Pkg.Name == "main" {
		return nil
	}
	prog.unusedOnce.Do(prog.collectUses)
	funcDecls(pass.Pkg, func(fd *ast.FuncDecl) {
		fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
		if !ok || prog.used[fn] || fd.Name.Name == "_" || (fd.Recv == nil && fd.Name.Name == "init") {
			return
		}
		recv := recvNamed(fn)
		if pass.Pkg == prog.root && fd.Name.IsExported() && (recv == nil || recv.Obj().Exported()) {
			return
		}
		name := fn.Name()
		if recv != nil {
			if prog.implementsAny(recv, name) {
				return
			}
			name = recv.Obj().Name() + "." + name
		}
		pass.Reportf(fd.Name.Pos(), "%s is not referenced by non-test code; delete it, or move it into a _test.go file if tests need it", name)
	})
	return nil
}

// collectUses records every function that loaded code references from
// outside its own body, and indexes the interface types of the loaded
// universe by method name.
func (prog *Program) collectUses() {
	prog.used = make(map[*types.Func]bool)
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = pkg.Info.Defs[fd.Name]
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && fn.Origin() != self {
							prog.used[fn.Origin()] = true
						}
					}
					return true
				})
			}
		}
	}

	prog.ifaces = make(map[string][]*types.Interface)
	seenIface := make(map[*types.Interface]bool)
	addIface := func(t types.Type) {
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return // generic: Implements is unspecified before instantiation
		}
		if it, ok := t.Underlying().(*types.Interface); ok && !seenIface[it] {
			seenIface[it] = true
			for i := range it.NumMethods() {
				name := it.Method(i).Name()
				prog.ifaces[name] = append(prog.ifaces[name], it)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seenPkg := make(map[*types.Package]bool)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range prog.Pkgs {
		walk(pkg.Types)
		// Every interface the module spells out, including literals in
		// assertions and types declared inside function bodies.
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
	}
}

// implementsAny reports whether recv or *recv implements an interface of
// the loaded universe that has a method called name. A generic receiver
// cannot be checked before instantiation, so for it the name suffices.
func (prog *Program) implementsAny(recv *types.Named, name string) bool {
	if recv.TypeParams().Len() > 0 {
		return len(prog.ifaces[name]) > 0
	}
	for _, it := range prog.ifaces[name] {
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}

// recvNamed returns the named receiver type of method fn, or nil for a
// plain function.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
