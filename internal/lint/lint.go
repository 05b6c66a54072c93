// Package lint is paratime's repo-specific static-analysis suite: it
// mechanizes the determinism, fingerprint-coverage and no-unused-code
// contracts that every PR otherwise has to re-prove by hand.
//
// The repo's four standing obligations are:
//
//  1. Output is byte-identical at any worker count — so no map-iteration
//     order, wall-clock reading, or environment lookup may influence a
//     result (analyzers mapiter, nondeterm).
//  2. Every semantic field of core.SystemConfig and the spec.Scenario
//     tree reaches core.PrepareKey or Scenario.Fingerprint(), while
//     execution knobs (the Parallelism precedent) are explicitly tagged
//     out (analyzer keycover).
//  3. Everything written to NDJSON/report/golden output flows through an
//     audited canonical encoder or a deterministic iteration (analyzer
//     sortedout).
//  4. Every exported function or method under internal/ has a caller
//     outside tests (analyzer deadexport).
//
// The suite runs as one whole-program pass: LoadRepo loads the module
// for analysis and the nested perfbench module, test files included, as
// reference-only packages, and every Pass sees the whole load set.
//
// The suite is built directly on go/ast and go/types (the module is
// dependency-free, so golang.org/x/tools is deliberately not used); the
// Analyzer/Pass surface mirrors go/analysis closely enough that the
// analyzers would port over mechanically.
//
// Escape hatches are explicit and reviewable:
//
//   - `//paralint:unordered <why>` on a map-range line (or the line
//     above) marks an order-insensitive fold (max, sum, set-build).
//   - `//paralint:canonical <why>` on a function declares it an audited
//     canonical-encoder site, allowed to call encoding/json marshalers.
//   - `//paralint:testonly <why>` on an exported function declares it a
//     cross-package test helper or reference oracle that deadexport
//     accepts without a non-test caller.
//   - struct tag `paralint:"execonly"` marks a SystemConfig field as an
//     execution knob that must NOT reach fingerprints.
//   - struct tag `paralint:"fingerprint"` marks a SystemConfig field
//     whose coverage is owed by the scenario schema (spec-side
//     assignment check) rather than by core.PrepareKey.
//   - allow_nondeterm.txt lists the sanctioned nondeterminism sites,
//     one `<pkgpath> <func> <callee>` triple per line.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named check, shaped like golang.org/x/tools/go/analysis
// so the suite could be rebased onto the real framework mechanically.
type Analyzer struct {
	Name string
	Doc  string
	// Run inspects one package and reports diagnostics through the
	// pass. The optional result is analyzer-specific (keycover returns
	// its field inventory for the committed golden).
	Run func(*Pass) (any, error)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// All is the whole load set, reference-only packages included, for
	// analyzers whose verdict on Pkg depends on the rest of the program.
	All    []*Package
	Config *Config

	diags *[]Diagnostic
}

// Diagnostic is one reported violation, position-resolved.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// Suite returns the five paralint analyzers in reporting order.
func Suite() []*Analyzer {
	return []*Analyzer{MapIter, KeyCover, NonDeterm, SortedOut, DeadExport}
}

// Run applies each analyzer to each package that is not reference-only
// and returns the combined diagnostics sorted by position, plus
// per-(package, analyzer) results. Every pass sees pkgs as its load set.
func Run(pkgs []*Package, analyzers []*Analyzer, cfg *Config) ([]Diagnostic, map[ResultKey]any, error) {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	var diags []Diagnostic
	results := make(map[ResultKey]any)
	for _, pkg := range pkgs {
		if pkg.RefOnly {
			continue
		}
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, All: pkgs, Config: cfg, diags: &diags}
			res, err := a.Run(pass)
			if err != nil {
				return nil, nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
			if res != nil {
				results[ResultKey{pkg.PkgPath, a.Name}] = res
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, results, nil
}

// ResultKey addresses one analyzer's result on one package.
type ResultKey struct {
	PkgPath  string
	Analyzer string
}

// enclosingFuncName renders the name of the top-level declaration that
// lexically contains pos: "F" for functions, "T.M" / "(*T).M" for
// methods, "init" for package-level variable initializers. It is the
// middle column of allow_nondeterm.txt entries.
func enclosingFuncName(file *ast.File, pos token.Pos) string {
	for _, decl := range file.Decls {
		if decl.Pos() <= pos && pos < decl.End() {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				return "init"
			}
			if fd.Recv == nil || len(fd.Recv.List) == 0 {
				return fd.Name.Name
			}
			return recvString(fd.Recv.List[0].Type) + "." + fd.Name.Name
		}
	}
	return "init"
}

func recvString(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.StarExpr:
		return "(*" + recvString(t.X) + ")"
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver T[P]
		return recvString(t.X)
	case *ast.IndexListExpr:
		return recvString(t.X)
	default:
		return "?"
	}
}

// derefStruct unwraps pointers and names down to a struct type, or nil.
func derefStruct(t types.Type) (*types.Struct, *types.Named) {
	var named *types.Named
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			named = tt
			t = tt.Underlying()
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Struct:
			return tt, named
		default:
			return nil, nil
		}
	}
}

// namedOrNil returns the named type behind t after stripping pointers.
func namedOrNil(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// calleePkgFunc resolves a call to (package path, function name) when the
// callee is a package-level function of another package (time.Now,
// os.Getenv, rand.Intn, fmt.Fprintf, json.Marshal...).
func calleePkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	obj := info.ObjectOf(sel.Sel)
	fn, isFn := obj.(*types.Func)
	if !isFn {
		return "", "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() != nil {
		return "", "", false
	}
	if fn.Pkg() == nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}

// calleeMethod resolves a call to (receiver type, method name) for
// method calls; recv is the named receiver type (pointer stripped).
func calleeMethod(info *types.Info, call *ast.CallExpr) (recv *types.Named, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	obj := info.ObjectOf(sel.Sel)
	fn, isFn := obj.(*types.Func)
	if !isFn {
		return nil, "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil, "", false
	}
	return namedOrNil(sig.Recv().Type()), fn.Name(), true
}

// typeString renders a named type as "pkgname.Type" for diagnostics.
func typeString(n *types.Named) string {
	if n == nil {
		return "?"
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Name() + "." + obj.Name()
}
