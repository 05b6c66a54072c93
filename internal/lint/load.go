package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package with syntax.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	// RefOnly marks a package loaded only for its references (see
	// LoadRefs): no analyzer inspects it.
	RefOnly bool
}

// listPackage mirrors the subset of `go list -json` output the loader
// consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	DepOnly    bool
	ForTest    string
	GoFiles    []string
	ImportMap  map[string]string
	Module     *struct {
		Path      string
		GoVersion string
	}
	Error *struct {
		Err string
	}
}

// LoadRepo loads the module rooted at root (./...) for analysis, and
// the nested perfbench module at root/perfbench, test files included,
// for references. perfbench is a separate module that `go list ./...`
// skips, but it calls internal packages directly, so deadexport is only
// sound over both.
func LoadRepo(root string) ([]*Package, error) {
	pkgs, err := Load(root, "./...")
	if err != nil {
		return nil, err
	}
	refs, err := LoadRefs(filepath.Join(root, "perfbench"), "./...")
	if err != nil {
		return nil, err
	}
	return append(pkgs, refs...), nil
}

// Load type-checks the packages matched by patterns (resolved relative
// to dir, "" meaning the current directory) and returns them with full
// syntax and type information. Test files are not loaded. Dependencies —
// including the standard library — are consumed from compiler export
// data produced by `go list -export`, so loading works offline and never
// re-typechecks the world from source. Packages under a testdata
// directory are skipped unless the pattern names them explicitly.
func Load(dir string, patterns ...string) ([]*Package, error) {
	return load(dir, false, patterns)
}

// LoadRefs is Load with each package's in-package test files, returning
// reference-only packages: no analyzer inspects them, but what they call
// counts as a caller for deadexport.
func LoadRefs(dir string, patterns ...string) ([]*Package, error) {
	return load(dir, true, patterns)
}

func load(dir string, tests bool, patterns []string) ([]*Package, error) {
	explicitTestdata := false
	for _, p := range patterns {
		if strings.Contains(p, "testdata") {
			explicitTestdata = true
		}
	}
	args := []string{"list", "-export", "-deps", "-json=ImportPath,Dir,Export,Standard,DepOnly,ForTest,GoFiles,ImportMap,Module,Error"}
	if tests {
		args = append(args, "-test")
	}
	cmd := exec.Command("go", append(args, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	var targets []*listPackage
	exports := map[string]string{} // import path -> export data file
	importMap := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		lp := new(listPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("lint: go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		//paralint:unordered vendored import maps agree across units; merge order is invisible
		for from, to := range lp.ImportMap {
			importMap[from] = to
		}
		if lp.DepOnly || lp.Standard || strings.HasSuffix(lp.ImportPath, ".test") {
			continue
		}
		if !explicitTestdata && underTestdata(lp.ImportPath) {
			continue
		}
		targets = append(targets, lp)
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("lint: no packages matched %v", patterns)
	}
	if tests {
		targets = withTestVariants(targets)
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		if to, ok := importMap[path]; ok {
			path = to
		}
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var pkgs []*Package
	for _, lp := range targets {
		pkg, err := typecheck(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		pkg.RefOnly = tests
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// withTestVariants replaces each package that has an in-package test
// variant ("p [p.test]", whose GoFiles are p's files plus its _test.go
// files) by that variant.
func withTestVariants(targets []*listPackage) []*listPackage {
	tested := map[string]bool{}
	for _, lp := range targets {
		if lp.ForTest != "" {
			tested[lp.ForTest] = true
		}
	}
	var out []*listPackage
	for _, lp := range targets {
		if lp.ForTest == "" && tested[lp.ImportPath] {
			continue
		}
		out = append(out, lp)
	}
	return out
}

func underTestdata(importPath string) bool {
	return strings.Contains(importPath, "/testdata/") || strings.HasSuffix(importPath, "/testdata")
}

func typecheck(fset *token.FileSet, imp types.Importer, lp *listPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", build.Default.GOARCH),
	}
	if lp.Module != nil && lp.Module.GoVersion != "" {
		conf.GoVersion = "go" + lp.Module.GoVersion
	}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", lp.ImportPath, err)
	}
	return &Package{
		PkgPath: lp.ImportPath,
		Fset:    fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}, nil
}
