package metaprobe_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"metaprobe"
	"metaprobe/internal/server"
)

// configWithoutCaller names the Config fields that no binary, example
// or benchmark workload sets, and why each stays.
var configWithoutCaller = map[string]string{
	"Relevancy": "picks the paper's second relevancy definition (§2.1, best-document similarity, evaluated as E-SIM) for library callers",
	"Model":     "carries the training configuration that §2.1's similarity relevancy needs (SimilarityModelConfig)",
}

// TestConfigFieldsHaveCallers parses the non-test Go under cmd/,
// examples/ and benchmark/ for metaprobe.Config{…} literals and fails on
// every Config field none of them sets, bar configWithoutCaller: a knob
// that only tests turn is behaviour no deployment runs.
func TestConfigFieldsHaveCallers(t *testing.T) {
	checkFieldsHaveCallers(t, reflect.TypeOf(metaprobe.Config{}), configWithoutCaller)
}

// TestServerConfigFieldsHaveCallers holds server.Config{…} literals to
// the same rule, with no exemption.
func TestServerConfigFieldsHaveCallers(t *testing.T) {
	checkFieldsHaveCallers(t, reflect.TypeOf(server.Config{}), nil)
}

// checkFieldsHaveCallers fails on every field of the struct type typ
// that no typ literal under cmd/, examples/ or benchmark/ sets, bar
// those exempt names, and on every exemption that is stale.
func checkFieldsHaveCallers(t *testing.T, typ reflect.Type, exempt map[string]string) {
	t.Helper()
	pkgName := typ.PkgPath()[strings.LastIndex(typ.PkgPath(), "/")+1:]
	fset := token.NewFileSet()
	set := make(map[string][]string) // field → files setting it
	for _, dir := range []string{"cmd", "examples", "benchmark"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				sel, ok := lit.Type.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != typ.Name() {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != pkgName {
					return true
				}
				for _, elt := range lit.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							set[key.Name] = append(set[key.Name], path)
						}
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(set) == 0 {
		t.Fatalf("found no %s literal under cmd/, examples/ or benchmark/", typ)
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		why, isExempt := exempt[name]
		switch {
		case isExempt && len(set[name]) > 0:
			t.Errorf("%s.%s is exempt (%s) but %v set it: drop the exemption", typ, name, why, set[name])
		case !isExempt && len(set[name]) == 0:
			t.Errorf("%s.%s is set by no binary, example or benchmark workload", typ, name)
		}
	}
	for name := range exempt {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("the exemptions name %s, which %s no longer has", name, typ)
		}
	}
}
