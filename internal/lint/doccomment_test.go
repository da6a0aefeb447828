// Package lint holds repo-policy tests that gate on static analysis of the
// source tree rather than on runtime behavior.
package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExportedSymbolsDocumented parses every package of the main module
// and fails on any exported declaration without a doc comment. Grouped
// specs inherit their group's comment (const blocks with one leading
// comment are fine). Each subtest is named by the package directory
// relative to this one ("../..", "../sim", "../../cmd/elect"). The CI
// revive step enforces the same rule on a listed subset; this test keeps
// the gate runnable offline with no tooling beyond the standard library.
func TestExportedSymbolsDocumented(t *testing.T) {
	dirs := packageDirs(t)
	if len(dirs) == 0 {
		t.Fatal("found no packages; is the module root right?")
	}
	for _, dir := range dirs {
		name, err := filepath.Rel(filepath.Join("internal", "lint"), dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(filepath.Clean(name), func(t *testing.T) {
			fset := token.NewFileSet()
			pkgs, err := parser.ParseDir(fset, filepath.Join(moduleRoot, dir), func(fi fs.FileInfo) bool {
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

// packageDirs lists, relative to the module root, every directory of the
// main module that holds non-test Go files. Hidden directories, testdata
// and nested modules (directories with their own go.mod, such as
// benchmark/) are skipped.
func packageDirs(t *testing.T) []string {
	t.Helper()
	var dirs []string
	seen := map[string]bool{}
	err := filepath.WalkDir(moduleRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(moduleRoot, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if rel != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); rel != "." && err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		dir := filepath.Dir(rel)
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") && !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
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
