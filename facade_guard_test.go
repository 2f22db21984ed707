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
// reach: every exported top-level func and every exported method declared
// in a non-test file under internal/ (the test-support package
// internal/enginetest aside) must be referenced from some non-test file
// of the module other than its own declaration — bench/, cmd/,
// examples/, harness/ and the root included. Methods are matched by name
// alone: any selector with the method's name counts as a use, and a
// method whose name some interface declared in the module lists is
// exempt, since it may be called through that interface. A func or
// method with no such caller is deleted with its tests, moved into the
// tests, or its tests move onto the entry point the program uses.
func TestNoTestOnlyInternalFuncs(t *testing.T) {
	allowed := map[string]string{
		"core.VerifyCachedCosts":           "a switch only tests flip by design: it re-derives every memoised cost",
		"cachepolicy.Names":                "the registry listing the policy-matrix tests walk",
		"core.Controller.Lineage":          "the root hot-path benchmark seeds the lineage the controller prices",
		"engine.Cluster.HeldShuffles":      "the root release test checks that a finished session's cluster holds no shuffle",
		"engine.Cluster.ParallelTasksRan":  "core's segment test counts the tasks that ran on workers",
		"costmodel.Params.Calibrated":      "calibration, which ROADMAP item 7 either wires into runs or deletes",
		"storage.MeterSnapshot.Categories": "the per-category view calibration (ROADMAP item 7) reads; the real-bytes tests walk it",
	}
	type fn struct{ pkg, name string } // pkg is the import path
	decls := map[fn]*ast.FuncDecl{}
	type method struct {
		pkg string
		*ast.FuncDecl
	}
	var methods []method                 // exported, under internal/
	inInterface := map[string]bool{}     // method names some interface lists
	selectors := map[string][]ast.Decl{} // selector name -> the decls using it
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
			if d, ok := decl.(*ast.FuncDecl); ok && d.Name.IsExported() {
				if d.Recv == nil {
					decls[fn{pkg, d.Name.Name}] = d
				} else {
					methods = append(methods, method{pkg, d})
				}
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
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, name := range m.Names {
							inInterface[name.Name] = true
						}
					}
				case *ast.SelectorExpr:
					selectors[n.Sel.Name] = append(selectors[n.Sel.Name], decl)
				}
				return true
			})
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
	for _, d := range methods {
		if inInterface[d.Name.Name] || slices.ContainsFunc(selectors[d.Name.Name], func(u ast.Decl) bool { return u != d.FuncDecl }) {
			continue
		}
		recv := d.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if idx, ok := recv.(*ast.IndexListExpr); ok { // a generic receiver
			recv = idx.X
		} else if idx, ok := recv.(*ast.IndexExpr); ok {
			recv = idx.X
		}
		name := d.pkg[strings.LastIndex(d.pkg, "/")+1:] + "." + recv.(*ast.Ident).Name + "." + d.Name.Name
		if _, ok := allowed[name]; ok {
			delete(allowed, name)
		} else {
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
