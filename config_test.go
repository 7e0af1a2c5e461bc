package metaprobe

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
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
				if !ok || sel.Sel.Name != "Config" {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "metaprobe" {
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
		t.Fatal("found no metaprobe.Config literal under cmd/, examples/ or benchmark/")
	}
	fields := reflect.TypeOf(Config{})
	for i := 0; i < fields.NumField(); i++ {
		name := fields.Field(i).Name
		why, exempt := configWithoutCaller[name]
		switch {
		case exempt && len(set[name]) > 0:
			t.Errorf("Config.%s is exempt (%s) but %v set it: drop the exemption", name, why, set[name])
		case !exempt && len(set[name]) == 0:
			t.Errorf("Config.%s is set by no binary, example or benchmark workload", name)
		}
	}
	for name := range configWithoutCaller {
		if _, ok := fields.FieldByName(name); !ok {
			t.Errorf("configWithoutCaller names %s, which Config no longer has", name)
		}
	}
}
