package metaprobe

import (
	"go/types"
	"os"
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

// docCode matches a code span; docInternalName matches, inside one, a
// <pkg>.<Name> or <pkg>.<Type>.<Member> of an internal package:
// core.ModelVersion, hidden.Client, modelhost.Host.View.
var (
	docCode         = regexp.MustCompile("`[^`]+`")
	docInternalName = regexp.MustCompile(`\b([a-z]+)\.([A-Z][A-Za-z0-9_]*)(?:\.([A-Za-z_][A-Za-z0-9_]*))?`)
)

// TestDocsNameOnlyExportedNames reads README.md and DESIGN.md and fails
// on every metaprobe.<Name> that the package does not export, and on
// every <pkg>.<Name> or <pkg>.<Type>.<Member> in a code span, pkg an
// internal package, that the package does not declare: a snippet may
// not show a caller an API that was removed or renamed, nor send a
// reader to an internal name that is gone. Names resolve against the
// non-test sources, so a name only a test declares does not count;
// test functions (Test…, Benchmark…, Fuzz…) are not looked up.
func TestDocsNameOnlyExportedNames(t *testing.T) {
	m := loadModule(t)
	root := m.pkgs["metaprobe"].pkg
	internal := make(map[string]*types.Package)
	for path, l := range m.pkgs {
		if !strings.HasPrefix(path, "metaprobe/internal/") {
			continue
		}
		if other, dup := internal[l.pkg.Name()]; dup {
			t.Fatalf("packages %s and %s share the name %s", other.Path(), path, l.pkg.Name())
		}
		internal[l.pkg.Name()] = l.pkg
	}
	declares := func(pkg *types.Package, name, member string) bool {
		obj := pkg.Scope().Lookup(name)
		if obj == nil || member == "" {
			return obj != nil
		}
		if _, ok := obj.(*types.TypeName); !ok {
			return false
		}
		sel, _, _ := types.LookupFieldOrMethod(types.NewPointer(obj.Type()), false, pkg, member)
		return sel != nil
	}
	for _, file := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range docName.FindAllStringSubmatch(line, -1) {
				if obj := root.Scope().Lookup(m[1]); obj == nil || !obj.Exported() {
					t.Errorf("%s:%d names metaprobe.%s, which the package does not export", file, i+1, m[1])
				}
			}
			for _, code := range docCode.FindAllString(line, -1) {
				for _, m := range docInternalName.FindAllStringSubmatch(code, -1) {
					pkg := internal[m[1]]
					if pkg == nil || strings.HasPrefix(m[2], "Test") || strings.HasPrefix(m[2], "Benchmark") || strings.HasPrefix(m[2], "Fuzz") {
						continue
					}
					if !declares(pkg, m[2], m[3]) {
						t.Errorf("%s:%d names %s, which %s does not declare", file, i+1, m[0], pkg.Path())
					}
				}
			}
		}
	}
}
