package blaze_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
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
