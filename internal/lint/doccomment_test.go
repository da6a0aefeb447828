// Package lint holds repo-policy tests that gate on static analysis of the
// source tree rather than on runtime behavior.
package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// docPackages are the packages whose exported API must be fully documented
// (the CI revive step enforces the same rule; this test keeps the gate
// runnable offline with no tooling beyond the standard library).
var docPackages = []string{
	"../..",        // package repro (facade)
	"../sim",       // the runtime users program against
	"../elect",     // the protocol layer
	"../adversary", // the scheduling strategies and the replay codec
	"../runtime",   // the unified Protocol/Runtime contract
	"../zoo",       // the related-work protocol zoo
	"../lazyrand",  // the module's one seeded-RNG constructor
}

// TestExportedSymbolsDocumented parses each gated package and fails on any
// exported declaration without a doc comment. Grouped specs inherit their
// group's comment (const blocks with one leading comment are fine).
func TestExportedSymbolsDocumented(t *testing.T) {
	for _, dir := range docPackages {
		dir := dir
		t.Run(filepath.Clean(dir), func(t *testing.T) {
			fset := token.NewFileSet()
			pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
				return !strings.HasSuffix(fi.Name(), "_test.go")
			}, parser.ParseComments)
			if err != nil {
				t.Fatalf("parse %s: %v", dir, err)
			}
			for _, pkg := range pkgs {
				for path, file := range pkg.Files {
					checkFile(t, fset, path, file)
				}
			}
		})
	}
}

func checkFile(t *testing.T, fset *token.FileSet, path string, file *ast.File) {
	t.Helper()
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			// Methods count when the receiver type is exported.
			if d.Recv != nil && len(d.Recv.List) > 0 && !exportedRecv(d.Recv.List[0].Type) {
				continue
			}
			if d.Doc == nil {
				report(t, fset, d.Pos(), "func "+d.Name.Name)
			}
		case *ast.GenDecl:
			groupDoc := d.Doc != nil
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && !groupDoc && s.Doc == nil {
						report(t, fset, s.Pos(), "type "+s.Name.Name)
					}
				case *ast.ValueSpec:
					if groupDoc || s.Doc != nil || s.Comment != nil {
						continue
					}
					for _, name := range s.Names {
						if name.IsExported() {
							report(t, fset, s.Pos(), "var/const "+name.Name)
						}
					}
				}
			}
		}
	}
}

func exportedRecv(expr ast.Expr) bool {
	switch e := expr.(type) {
	case *ast.StarExpr:
		return exportedRecv(e.X)
	case *ast.IndexExpr: // generic receiver
		return exportedRecv(e.X)
	case *ast.Ident:
		return e.IsExported()
	}
	return false
}

func report(t *testing.T, fset *token.FileSet, pos token.Pos, what string) {
	t.Helper()
	t.Errorf("%s: exported %s has no doc comment", fset.Position(pos), what)
}
