package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive names recognized in //paralint: comments.
const (
	DirUnordered = "unordered" // map-range loop is an order-insensitive fold
	DirCanonical = "canonical" // function is an audited canonical-encoder site
	DirTestOnly  = "testonly"  // exported function exists for other packages' tests
)

// directiveLines scans a file's comments for //paralint:<name> markers
// and returns line -> set of directive names. The marker may carry a
// justification after the name ("//paralint:unordered max fold"); the
// justification is free text and is ignored here, but reviewers should
// expect one.
func directiveLines(fset *token.FileSet, f *ast.File) map[int]map[string]bool {
	out := map[int]map[string]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimPrefix(text, "/*")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "paralint:") {
				continue
			}
			name := strings.TrimPrefix(text, "paralint:")
			if i := strings.IndexAny(name, " \t("); i >= 0 {
				name = name[:i]
			}
			line := fset.Position(c.Pos()).Line
			if out[line] == nil {
				out[line] = map[string]bool{}
			}
			out[line][name] = true
		}
	}
	return out
}

// annotatedStmt reports whether a directive sits on the statement's own
// line or the line directly above it (trailing comment or leading
// comment styles both work).
func annotatedStmt(fset *token.FileSet, dirs map[int]map[string]bool, pos token.Pos, name string) bool {
	line := fset.Position(pos).Line
	return dirs[line][name] || dirs[line-1][name]
}

// annotatedFunc reports whether fn carries the directive in its doc
// comment or on the line directly above its declaration.
func annotatedFunc(fset *token.FileSet, dirs map[int]map[string]bool, fn *ast.FuncDecl, name string) bool {
	if fn == nil {
		return false
	}
	if fn.Doc != nil {
		start := fset.Position(fn.Doc.Pos()).Line
		end := fset.Position(fn.Doc.End()).Line
		for l := start; l <= end; l++ {
			if dirs[l][name] {
				return true
			}
		}
	}
	return annotatedStmt(fset, dirs, fn.Pos(), name)
}

// enclosingFuncDecl returns the top-level FuncDecl containing pos, nil
// for package-level declarations.
func enclosingFuncDecl(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos < fd.End() {
			return fd
		}
	}
	return nil
}
