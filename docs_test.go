package metaprobe

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docName matches a package-qualified exported name in prose or a code
// snippet: metaprobe.New, metaprobe.Config{…}, metaprobe.Absolute.
var docName = regexp.MustCompile(`\bmetaprobe\.([A-Z][A-Za-z0-9_]*)`)

// docPath matches a repository path under cmd/, examples/ or internal/
// in prose, a code span or a layout tree: ./cmd/metaprobed,
// internal/core/memo.go, examples/quickstart/.
var docPath = regexp.MustCompile(`\b(?:cmd|examples|internal)/[A-Za-z0-9_./-]*[A-Za-z0-9_]`)

// TestDocsNameOnlyExistingPaths fails on every cmd/…, examples/… or
// internal/… path that README.md or DESIGN.md names and the repository
// does not have: a reader may not be sent to a program or package that
// was removed or renamed.
func TestDocsNameOnlyExistingPaths(t *testing.T) {
	for _, file := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, p := range docPath.FindAllString(line, -1) {
				if _, err := os.Stat(p); err != nil {
					t.Errorf("%s:%d names %s, which does not exist", file, i+1, p)
				}
			}
		}
	}
}

// TestDocsNameOnlyExportedNames reads README.md and DESIGN.md and fails
// on every metaprobe.<Name> that the package does not declare: a
// snippet may not show a caller an API that was removed or renamed.
// The declared names come from the package's non-test sources, so a
// name only a test declares does not count.
func TestDocsNameOnlyExportedNames(t *testing.T) {
	sources, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	exported := make(map[string]bool)
	for _, name := range sources {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					exported[d.Name.Name] = d.Name.IsExported()
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec: // aliases included
						exported[s.Name.Name] = s.Name.IsExported()
					case *ast.ValueSpec:
						for _, n := range s.Names {
							exported[n.Name] = n.IsExported()
						}
					}
				}
			}
		}
	}
	if !exported["New"] || !exported["Config"] || !exported["Metrics"] {
		t.Fatalf("parsed %d top-level names without New, Config and the Metrics alias: %v", len(exported), exported)
	}

	for _, file := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range docName.FindAllStringSubmatch(line, -1) {
				if !exported[m[1]] {
					t.Errorf("%s:%d names metaprobe.%s, which the package does not export", file, i+1, m[1])
				}
			}
		}
	}
}
