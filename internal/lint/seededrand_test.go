package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// moduleRoot is the root of the main module, relative to this package.
const moduleRoot = "../.."

// lazyrandDir is the one package allowed to call math/rand's NewSource: it
// recovers the seeding table from it.
var lazyrandDir = filepath.Join("internal", "lazyrand")

// TestNoEagerSeeding fails on any rand.NewSource call in the main module's
// non-test code outside internal/lazyrand. rand.NewSource fills a 607-word
// register on every seeding; lazyrand.New yields the same stream with an
// O(1) seed, and keeping it the only constructor keeps the slow seeding
// from creeping back into hot paths. Nested modules (directories with
// their own go.mod, such as benchmark/) are not part of the main module
// and are skipped.
func TestNoEagerSeeding(t *testing.T) {
	fset := token.NewFileSet()
	scanned := 0
	for _, dir := range packageDirs(t) {
		if dir == lazyrandDir {
			continue
		}
		pkgs, err := parser.ParseDir(fset, filepath.Join(moduleRoot, dir), func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				scanned++
				for _, pos := range newSourceUses(file) {
					t.Errorf("%s: rand.NewSource seeds eagerly; use lazyrand.New", fset.Position(pos))
				}
			}
		}
	}
	if scanned == 0 {
		t.Fatal("scanned no Go files; is the module root right?")
	}
}

// newSourceUses returns the positions where the file names math/rand's
// NewSource, under whatever name it imports the package.
func newSourceUses(file *ast.File) []token.Pos {
	var names []string
	for _, imp := range file.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path != "math/rand" {
			continue
		}
		name := "rand"
		if imp.Name != nil {
			name = imp.Name.Name
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil
	}
	var out []token.Pos
	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "NewSource" {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); ok {
			for _, name := range names {
				if pkg.Name == name {
					out = append(out, sel.Pos())
				}
			}
		}
		return true
	})
	return out
}

// TestNewSourceUsesSeesAliases checks the detector itself: it follows an
// aliased math/rand import and ignores a NewSource of another package.
func TestNewSourceUsesSeesAliases(t *testing.T) {
	for src, want := range map[string]int{
		`package p; import "math/rand"; var r = rand.New(rand.NewSource(1))`:   1,
		`package p; import mr "math/rand"; var f = mr.NewSource`:               1,
		`package p; import rand "example.com/rand"; var s = rand.NewSource(1)`: 0,
		`package p; import "math/rand"; var r = rand.New(nil)`:                 0,
	} {
		file, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(newSourceUses(file)); got != want {
			t.Errorf("%s: found %d NewSource uses, want %d", src, got, want)
		}
	}
}
