package blaze_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestFacadeHygiene enforces the facade boundary mechanically: nothing
// under examples/, cmd/ or harness/ may import blaze/internal/... —
// those trees are the demonstration that the public surface (blaze.Run,
// Session, the type aliases in api.go) is sufficient to build real
// programs, the paper's figures included. A new example or tool that
// reaches into internal packages either needs a facade addition or is
// using the wrong entry point.
func TestFacadeHygiene(t *testing.T) {
	fset := token.NewFileSet()
	for _, root := range []string{"examples", "cmd", "harness"} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Errorf("%s: %v", path, err)
				return nil
			}
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if p == "blaze/internal" || strings.HasPrefix(p, "blaze/internal/") {
					t.Errorf("%s imports %s: examples, commands and the figures harness must use the public facade only",
						path, p)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("walking %s: %v", root, err)
		}
	}
}

// TestRealBytesIsThePoolsBusiness keeps the storage mode where ISSUE 19
// put it. How a resident block is held is a private decision of
// internal/storage, and which kind of store exists is decided once, by
// the pool that builds the stores: in the non-test files of
// internal/engine the name RealBytes may appear only in the Config and
// PoolConfig declarations, in NewPool, and on the one line of NewCluster
// that forwards it to the private pool. The per-representation method
// twins, the keys-only codec check and the second run path the mode used
// to need must not come back anywhere in the module outside bench/.
func TestRealBytesIsThePoolsBusiness(t *testing.T) {
	// Two names are spelled in halves so that grepping the tree for them
	// finds nothing, this file included.
	gone := map[string]bool{"PutEncoded": true, "RemoveEncoded": true, "GetEncoded": true, "Verify" + "Codec": true, "run" + "Direct": true}
	fset := token.NewFileSet()
	forwardLines := map[int]bool{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			return nil
		}
		engine := filepath.Dir(path) == filepath.Join("internal", "engine") && !strings.HasSuffix(path, "_test.go")
		for _, decl := range f.Decls {
			home := "" // the enclosing top-level func or type, for the engine rule
			switch d := decl.(type) {
			case *ast.FuncDecl:
				home = d.Name.Name
			case *ast.GenDecl:
				if len(d.Specs) == 1 {
					if ts, ok := d.Specs[0].(*ast.TypeSpec); ok {
						home = ts.Name.Name
					}
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				pos := fset.Position(id.Pos())
				if gone[id.Name] {
					t.Errorf("%s: identifier %s is back", pos, id.Name)
				}
				if !engine || id.Name != "RealBytes" {
					return true
				}
				switch home {
				case "Config", "PoolConfig", "NewPool":
				case "NewCluster":
					forwardLines[pos.Line] = true
				default:
					t.Errorf("%s: RealBytes consulted in %s; the mode belongs to the pool that builds the stores", pos, home)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(forwardLines) != 1 {
		t.Errorf("NewCluster names RealBytes on %d lines, want exactly the one forwarding it to the private pool", len(forwardLines))
	}
}

// TestNoTestOnlyInternalFuncs keeps internal/ free of API only tests
// reach: every exported top-level func declared in a non-test file under
// internal/ (the test-support package internal/enginetest aside) must be
// referenced from some non-test file of the module other than its own
// declaration — bench/, cmd/, examples/, harness/ and the root included.
// A func with no such caller is deleted with its tests, or its tests move
// onto the entry point the program uses.
func TestNoTestOnlyInternalFuncs(t *testing.T) {
	allowed := map[string]string{
		"ilp.BruteForce":         "the exhaustive oracle the solver tests check ilp.Solve against",
		"core.VerifyCachedCosts": "a switch only tests flip by design: it re-derives every memoised cost",
		"cachepolicy.Names":      "the registry listing the policy-matrix tests walk",
	}
	type fn struct{ pkg, name string } // pkg is the import path
	decls := map[fn]*ast.FuncDecl{}
	type file struct {
		*ast.File
		pkg string
	}
	var files []file
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkg := "blaze"
		if dir != "." {
			pkg += "/" + dir
		}
		files = append(files, file{f, pkg})
		if !strings.HasPrefix(dir, "internal/") || dir == "internal/enginetest" {
			return nil
		}
		for _, decl := range f.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok && d.Recv == nil && d.Name.IsExported() {
				decls[fn{pkg, d.Name.Name}] = d
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	used := map[fn]bool{}
	for _, f := range files {
		imports := map[string]string{} // local name -> import path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		for _, decl := range f.Decls {
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				var ref fn
				switch n := n.(type) {
				case *ast.SelectorExpr:
					x, ok := n.X.(*ast.Ident)
					if !ok || imports[x.Name] == "" {
						ast.Inspect(n.X, visit) // a field or method name is no reference
						return false
					}
					ref = fn{imports[x.Name], n.Sel.Name}
				case *ast.Ident:
					ref = fn{f.pkg, n.Name}
				default:
					return true
				}
				if d := decls[ref]; d != nil && d != decl {
					used[ref] = true
				}
				return false
			}
			ast.Inspect(decl, visit)
		}
	}
	var unused []string
	for k, d := range decls {
		name := k.pkg[strings.LastIndex(k.pkg, "/")+1:] + "." + k.name
		if _, ok := allowed[name]; ok {
			delete(allowed, name)
		} else if !used[k] {
			unused = append(unused, fmt.Sprintf("%s: %s", fset.Position(d.Pos()), name))
		}
	}
	slices.Sort(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but reached only by tests: delete it, or move its tests onto the entry point the program uses", u)
	}
	for name := range allowed {
		t.Errorf("allowlisted %s is no longer declared: drop it from the list", name)
	}
}
