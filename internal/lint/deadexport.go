package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeadExport reports every exported function or method declared under
// an internal/ directory that no non-test code references: MISRA-C's
// "no unused code" rule, held over the whole load set. References count
// from every analyzed package and from every reference-only package
// (LoadRefs: perfbench, test files included). A method that satisfies
// an interface (String, Error, a backend or session method) is never
// dead: it is reached through the interface.
//
// The escape hatch is `//paralint:testonly <why>` in a function's doc
// comment, for cross-package test helpers and reference oracles. A
// testonly function that does have a non-test caller is itself
// reported, so the directive cannot go stale.
var DeadExport = &Analyzer{
	Name: "deadexport",
	Doc:  "reports exported internal functions and methods that only tests call",
	Run:  runDeadExport,
}

func runDeadExport(pass *Pass) (any, error) {
	path := pass.Pkg.PkgPath
	if !strings.Contains("/"+path+"/", "/internal/") {
		return nil, nil
	}
	// Imported objects come from export data, not from the source-checked
	// package, so references are keyed by name rather than by object.
	used := map[string]bool{}
	for _, pkg := range pass.All {
		//paralint:unordered set build
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == path {
				used[funcKey(fn)] = true
			}
		}
	}
	var ifaces *interfaceIndex
	for _, file := range pass.Pkg.Files {
		dirs := directiveLines(pass.Pkg.Fset, file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			fn := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			name := pass.Pkg.Types.Name() + "." + fd.Name.Name
			if fd.Recv != nil {
				name = pass.Pkg.Types.Name() + "." + recvString(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			testOnly := annotatedFunc(pass.Pkg.Fset, dirs, fd, DirTestOnly)
			if used[funcKey(fn)] {
				if testOnly {
					pass.Reportf(fd.Name.Pos(), "%s is marked testonly but has a non-test caller: drop the directive", name)
				}
				continue
			}
			if testOnly {
				continue
			}
			if fd.Recv != nil {
				if ifaces == nil {
					ifaces = indexInterfaces(pass.All)
				}
				if ifaces.satisfied(fn) {
					continue
				}
			}
			pass.Reportf(fd.Name.Pos(), "%s has no caller outside tests: delete it, move it into a _test.go file, or mark it //paralint:testonly <why>", name)
		}
	}
	return nil, nil
}

// funcKey names a function or method by package path, receiver type
// name and name, which agree between source-checked and imported
// objects.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	key := fn.Pkg().Path() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if n := namedOrNil(recv.Type()); n != nil {
			key += n.Obj().Name() + "."
		}
	}
	return key + fn.Name()
}

// interfaceIndex holds every interface type declared in a package the
// load set reaches, by method name, and every view of each package: a
// package checked from source and the same package imported from export
// data are distinct objects, and an interface only matches types of its
// own view.
type interfaceIndex struct {
	byMethod map[string][]*types.Interface
	views    map[string][]*types.Package
}

func indexInterfaces(pkgs []*Package) *interfaceIndex {
	ix := &interfaceIndex{byMethod: map[string][]*types.Interface{}, views: map[string][]*types.Package{}}
	ix.add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		ix.views[p.Path()] = append(ix.views[p.Path()], p)
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ix.add(it)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
	}
	return ix
}

func (ix *interfaceIndex) add(it *types.Interface) {
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		ix.byMethod[name] = append(ix.byMethod[name], it)
	}
}

// satisfied reports whether method fn's receiver type, in any view,
// implements an interface that declares a method of fn's name.
func (ix *interfaceIndex) satisfied(fn *types.Func) bool {
	recv := namedOrNil(fn.Type().(*types.Signature).Recv().Type())
	if recv == nil {
		return false
	}
	for _, view := range ix.views[fn.Pkg().Path()] {
		tn, ok := view.Scope().Lookup(recv.Obj().Name()).(*types.TypeName)
		if !ok {
			continue
		}
		for _, it := range ix.byMethod[fn.Name()] {
			if types.Implements(tn.Type(), it) || types.Implements(types.NewPointer(tn.Type()), it) {
				return true
			}
		}
	}
	return false
}
