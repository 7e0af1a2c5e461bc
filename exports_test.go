package metaprobe

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The guard below holds every exported name in non-test internal/** to
// one rule: some non-test Go outside its package — the facade, a
// binary, an example or the benchmark module — refers to it. A name
// that nothing outside its package reads is surface without a caller:
// delete it, unexport it, or move it next to the tests that use it.

// testSupport lists the packages whose whole purpose is to serve other
// packages' tests. Their names are exempt from the rule; like any
// non-test Go, what they refer to counts as called.
var testSupport = map[string]bool{
	"metaprobe/internal/leakcheck":         true,
	"metaprobe/internal/obs/ops/opstest":   true,
	"metaprobe/internal/hidden/hiddentest": true,
}

// The reasons an exported name may stay without a caller outside its
// package. An allowlist entry gives one of them, word for word.
const (
	whyHarness = "constructor, entry point or seam that other packages' tests and benchmarks build with"
	whyObserve = "accessor or invariant check through which other packages' tests observe state"
	whyAPI     = "member of a type the root package re-exports, which library callers read"
)

var allowReasons = []string{whyHarness, whyObserve, whyAPI}

// exportsWithoutCaller names the exported internal names that no
// non-test Go outside their package refers to, each with its reason.
// Keys are <package>.<Name> or <package>.<Type>.<Member>.
var exportsWithoutCaller = map[string]string{
	"core.DBModel.Pooled":             whyHarness,
	"core.Impulse":                    whyHarness,
	"core.MustRD":                     whyHarness,
	"core.NewSelectionFromRDs":        whyHarness,
	"core.Ranker":                     whyHarness,
	"core.Ranker.Rank":                whyHarness,
	"core.Selection.Reuse":            whyHarness,
	"experiments.Env.Rel":             whyHarness,
	"experiments.Env.Selection":       whyHarness,
	"experiments.Env.Summaries":       whyHarness,
	"experiments.Env.Test":            whyHarness,
	"experiments.Env.Testbed":         whyHarness,
	"experiments.Env.Version":         whyHarness,
	"experiments.SmallConfig":         whyHarness,
	"experiments.SmallSamplingConfig": whyHarness,

	"core.RD.Len":              whyObserve,
	"core.RD.Prob":             whyObserve,
	"core.RD.Value":            whyObserve,
	"core.Selection.Len":       whyObserve,
	"obs.Counter.Value":        whyObserve,
	"obs.Gauge.Value":          whyObserve,
	"obs.Histogram.Count":      whyObserve,
	"obs.Histogram.Sum":        whyObserve,
	"textindex.Index.Validate": whyObserve,

	"hidden.DocSummary.Snippet":           whyAPI,
	"modelhost.DriftStatus.Alerts":        whyAPI,
	"modelhost.DriftStatus.DB":            whyAPI,
	"modelhost.DriftStatus.LastPValue":    whyAPI,
	"modelhost.DriftStatus.LastStatistic": whyAPI,
	"modelhost.DriftStatus.QueryType":     whyAPI,
	"modelhost.DriftStatus.Samples":       whyAPI,
	"modelhost.DriftStatus.Tests":         whyAPI,
	"obs.Registry.WritePrometheus":        whyAPI,
	"span.Span.Duration":                  whyAPI,
	"span.Tracer.Recorded":                whyAPI,
	"span.Tracer.TraceSpans":              whyAPI,
	"span.Tracer.Traces":                  whyAPI,
	"span.Tracer.Tree":                    whyAPI,
}

// configWithoutCaller names the Config fields that no binary, example
// or benchmark workload sets, and why each stays.
var configWithoutCaller = map[string]string{
	"Relevancy": "picks the paper's second relevancy definition (§2.1, best-document similarity, evaluated as E-SIM) for library callers",
	"Model":     "carries the training configuration that §2.1's similarity relevancy needs (SimilarityModelConfig)",
}

// loaded is one type-checked package of the module or of benchmark/.
type loaded struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// moduleLoad is the non-test Go of this module and of the benchmark
// module (metaprobe/benchmark, which imports only metaprobe/... and
// the standard library), type-checked from source once per test
// binary. The standard library comes from the "source" importer, so the
// check needs nothing but the toolchain.
type moduleLoad struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*loaded // by import path
}

var (
	loadOnce sync.Once
	theLoad  *moduleLoad
	loadErr  error
)

// loadModule returns the shared load. Type-checking the standard
// library from source takes seconds, and several times that under the
// race detector, so the static checks skip under -race; CI runs them
// once in its lint job.
func loadModule(t *testing.T) *moduleLoad {
	t.Helper()
	if raceEnabled {
		t.Skip("static check of the sources; run without -race")
	}
	loadOnce.Do(func() { theLoad, loadErr = newModuleLoad() })
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return theLoad
}

func newModuleLoad() (*moduleLoad, error) {
	fset := token.NewFileSet()
	m := &moduleLoad{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: make(map[string]*loaded)}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == filepath.Join("benchmark", "out")) {
			return filepath.SkipDir
		}
		if bp, err := build.ImportDir(path, 0); err != nil || len(bp.GoFiles) == 0 {
			return nil
		}
		_, err = m.load(importPath(path))
		return err
	})
	return m, err
}

// importPath maps a directory of the repository to its import path;
// benchmark/ is metaprobe/benchmark, so one rule covers both modules.
func importPath(dir string) string {
	if dir == "." {
		return "metaprobe"
	}
	return "metaprobe/" + filepath.ToSlash(dir)
}

func inModule(path string) bool { return path == "metaprobe" || strings.HasPrefix(path, "metaprobe/") }

// Import implements types.Importer: this module's packages from their
// non-test sources, the rest from the standard library's.
func (m *moduleLoad) Import(path string) (*types.Package, error) {
	if !inModule(path) {
		return m.std.Import(path)
	}
	l, err := m.load(path)
	if err != nil {
		return nil, err
	}
	return l.pkg, nil
}

func (m *moduleLoad) load(path string) (*loaded, error) {
	if l, ok := m.pkgs[path]; ok {
		return l, nil
	}
	dir := "."
	if path != "metaprobe" {
		dir = filepath.FromSlash(strings.TrimPrefix(path, "metaprobe/"))
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	l := &loaded{info: &types.Info{
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		l.files = append(l.files, f)
	}
	conf := types.Config{Importer: m}
	if l.pkg, err = conf.Check(path, m.fset, l.files, l.info); err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	m.pkgs[path] = l
	return l, nil
}

// sortedPaths returns the loaded import paths in order, so reports are
// stable.
func (m *moduleLoad) sortedPaths() []string {
	paths := make([]string, 0, len(m.pkgs))
	for p := range m.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// checked reports whether the name rule applies to the package.
func checked(path string) bool {
	return strings.HasPrefix(path, "metaprobe/internal/") && !testSupport[path]
}

// member is one exported name the rule applies to: a package-level
// object, or a method or field of an exported type.
type member struct {
	key   string          // <package>.<Name> or <package>.<Type>.<Member>
	owner *types.TypeName // the type a method or field belongs to
}

// exportedMembers lists every exported name of the checked packages.
func (m *moduleLoad) exportedMembers() map[types.Object]member {
	out := make(map[types.Object]member)
	for _, path := range m.sortedPaths() {
		if !checked(path) {
			continue
		}
		pkg := m.pkgs[path].pkg
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			out[obj] = member{key: pkg.Name() + "." + name}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			add := func(o types.Object) {
				if o.Exported() {
					out[o] = member{key: pkg.Name() + "." + name + "." + o.Name(), owner: tn}
				}
			}
			for i := 0; i < named.NumMethods(); i++ {
				add(named.Method(i))
			}
			switch u := named.Underlying().(type) {
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					add(u.Field(i))
				}
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					add(u.ExplicitMethod(i))
				}
			}
		}
	}
	return out
}

// origin returns the generic declaration an instantiated object comes
// from, so a use of an instance counts for the declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// reached returns the members some non-test Go outside their package
// reaches: by a use of the name or a selection through a value of its
// type (with the embedded fields it passes through); through an
// interface (see below); as a field encoding/json reads; as the type of
// a reached method or field; or as a constant of a reached type.
func (m *moduleLoad) reached(members map[types.Object]member) map[types.Object]bool {
	reached := make(map[types.Object]bool)
	pinned := make(map[types.Object]bool) // allowlisted: kept exported, so kept by name
	for obj, mem := range members {
		_, pinned[obj] = exportsWithoutCaller[mem.key]
	}
	var named []*types.TypeName  // every named non-interface type of the module
	var ifaces []*types.TypeName // every named interface the module sees
	seen := make(map[*types.Package]bool)
	var collect func(pkg *types.Package)
	collect = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if _, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, tn)
			} else if inModule(pkg.Path()) {
				named = append(named, tn)
			}
		}
		for _, imp := range pkg.Imports() {
			collect(imp)
		}
	}
	for _, path := range m.sortedPaths() {
		l := m.pkgs[path]
		collect(l.pkg)
		outside := func(obj types.Object) bool {
			return obj != nil && obj.Pkg() != nil && obj.Pkg() != l.pkg && checked(obj.Pkg().Path())
		}
		for _, obj := range l.info.Uses {
			if outside(obj) {
				reached[origin(obj)] = true
			}
		}
		for _, sel := range l.info.Selections {
			typ := sel.Recv()
			for _, i := range sel.Index()[:len(sel.Index())-1] {
				s, ok := deref(typ).Underlying().(*types.Struct)
				if !ok {
					break
				}
				f := s.Field(i)
				if outside(f) {
					reached[origin(f)] = true
				}
				typ = f.Type()
			}
		}
	}
	type impl struct{ typ, iface *types.TypeName }
	var impls []impl
	for _, tn := range named {
		if tn.Type().(*types.Named).TypeParams() != nil {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		mset := types.NewMethodSet(ptr)
	next:
		for _, it := range ifaces {
			iface := it.Type().Underlying().(*types.Interface)
			if iface.NumMethods() == 0 {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				if mset.Lookup(iface.Method(i).Pkg(), iface.Method(i).Name()) == nil {
					continue next
				}
			}
			if types.Implements(ptr, iface) {
				impls = append(impls, impl{tn, it})
			}
		}
	}
	// An interface implemented in another package is reached, methods
	// and all; a method implementing another package's interface is
	// reached; and within one package an interface method and the
	// methods implementing it share one name, so they stand or fall
	// together — an allowlisted interface method keeps its
	// implementations exported too.
	for changed := true; changed; {
		changed = false
		mark := func(obj types.Object) {
			if !reached[obj] {
				reached[obj], changed = true, true
			}
		}
		for _, p := range impls {
			iface := p.iface.Type().Underlying().(*types.Interface)
			for i := 0; i < iface.NumMethods(); i++ {
				im := iface.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(p.typ.Type()), false, im.Pkg(), im.Name())
				if p.typ.Pkg() != p.iface.Pkg() && checked(p.iface.Pkg().Path()) {
					mark(p.iface)
					mark(im)
				}
				if obj.Pkg() != p.iface.Pkg() || reached[im] || pinned[im] {
					mark(obj)
				} else if reached[obj] {
					mark(im)
				}
			}
		}
	}
	for obj, mem := range members {
		if v, ok := obj.(*types.Var); ok && mem.owner != nil && jsonReads(mem.owner, v) {
			reached[obj] = true
		}
	}
	for obj, mem := range members {
		if reached[obj] && mem.owner != nil {
			reached[mem.owner] = true
		}
	}
	for obj := range members {
		if c, ok := obj.(*types.Const); ok {
			if named, ok := c.Type().(*types.Named); ok && named.Obj().Pkg() == c.Pkg() && reached[named.Obj()] {
				reached[obj] = true
			}
		}
	}
	return reached
}

// jsonReads reports whether encoding/json reads field f of the struct
// type tn: the struct carries json tags, so it is encoded, and f is not
// tagged "-".
func jsonReads(tn *types.TypeName, f *types.Var) bool {
	s := tn.Type().Underlying().(*types.Struct)
	encoded, skipped := false, false
	for i := 0; i < s.NumFields(); i++ {
		tag, tagged := reflect.StructTag(s.Tag(i)).Lookup("json")
		encoded = encoded || tagged
		skipped = skipped || s.Field(i) == f && tag == "-"
	}
	return encoded && !skipped
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// TestInternalExportsHaveCallers fails on every exported name, method
// or field in non-test internal/** that no non-test Go outside its
// package refers to, bar exportsWithoutCaller; on every allowlist entry
// whose reason is not one of allowReasons; and on every entry that now
// has a caller or names nothing.
func TestInternalExportsHaveCallers(t *testing.T) {
	m := loadModule(t)
	members := m.exportedMembers()
	reached := m.reached(members)
	byKey := make(map[string]member, len(members))
	var missing []string
	for obj, mem := range members {
		byKey[mem.key] = mem
		_, allowed := exportsWithoutCaller[mem.key]
		switch {
		case reached[obj] && allowed:
			t.Errorf("%s is on the allowlist but has a caller outside its package: drop the entry", mem.key)
		case !reached[obj] && !allowed:
			missing = append(missing, mem.key)
		}
	}
	sort.Strings(missing)
	for _, key := range missing {
		t.Errorf("%s has no non-test caller outside its package: delete it, unexport it or move it to a test package", key)
	}
	reexported := make(map[types.Object]bool) // internal types the root package aliases
	root := m.pkgs["metaprobe"].pkg.Scope()
	for _, name := range root.Names() {
		if tn, ok := root.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				reexported[named.Obj()] = true
			}
		}
	}
	for key, why := range exportsWithoutCaller {
		mem, ok := byKey[key]
		switch {
		case !ok:
			t.Errorf("the allowlist names %s, which no checked package exports", key)
		case !slices.Contains(allowReasons, why):
			t.Errorf("allowlist entry %s gives the reason %q, which is not one of %q", key, why, allowReasons)
		case why == whyAPI && !reexported[mem.owner]:
			t.Errorf("allowlist entry %s claims %q, but the root package aliases no type it belongs to", key, why)
		}
	}
}

// TestConfigFieldsHaveCallers fails on every metaprobe.Config field
// that no non-test code under cmd/, examples/ or benchmark/ sets, by a
// literal key or an assignment, bar configWithoutCaller: a knob that
// only tests turn is behaviour no deployment runs.
func TestConfigFieldsHaveCallers(t *testing.T) {
	m := loadModule(t)
	checkFieldsHaveCallers(t, m, m.pkgs["metaprobe"].pkg, "Config", configWithoutCaller)
}

// TestServerConfigFieldsHaveCallers holds server.Config to the same
// rule, with no exemption.
func TestServerConfigFieldsHaveCallers(t *testing.T) {
	m := loadModule(t)
	checkFieldsHaveCallers(t, m, m.pkgs["metaprobe/internal/server"].pkg, "Config", nil)
}

// checkFieldsHaveCallers fails on every field of the struct type
// pkg.name that no literal key or assignment in non-test code under
// cmd/, examples/ or benchmark/ sets, bar those exempt names, and on
// every exemption that is stale.
func checkFieldsHaveCallers(t *testing.T, m *moduleLoad, pkg *types.Package, name string, exempt map[string]string) {
	t.Helper()
	tn, _ := pkg.Scope().Lookup(name).(*types.TypeName)
	if tn == nil {
		t.Fatalf("%s declares no type %s", pkg.Path(), name)
	}
	st := tn.Type().Underlying().(*types.Struct)
	fields := make(map[types.Object]bool, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		fields[st.Field(i)] = true
	}
	set := make(map[string][]string) // field → files setting it
	for _, path := range m.sortedPaths() {
		l := m.pkgs[path]
		if !strings.HasPrefix(path, "metaprobe/cmd/") && !strings.HasPrefix(path, "metaprobe/examples/") && path != "metaprobe/benchmark" {
			continue
		}
		record := func(id *ast.Ident) {
			if obj := l.info.Uses[id]; fields[obj] {
				file := m.fset.Position(id.Pos()).Filename
				set[obj.Name()] = append(set[obj.Name()], file)
			}
		}
		for _, f := range l.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								record(key)
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							record(sel.Sel)
						}
					}
				}
				return true
			})
		}
	}
	if len(set) == 0 {
		t.Fatalf("found nothing under cmd/, examples/ or benchmark/ that sets a %s.%s field", pkg.Name(), name)
	}
	for i := 0; i < st.NumFields(); i++ {
		field := st.Field(i).Name()
		why, isExempt := exempt[field]
		switch {
		case isExempt && len(set[field]) > 0:
			t.Errorf("%s.%s.%s is exempt (%s) but %v set it: drop the exemption", pkg.Name(), name, field, why, set[field])
		case !isExempt && len(set[field]) == 0:
			t.Errorf("%s.%s.%s is set by no binary, example or benchmark workload", pkg.Name(), name, field)
		}
	}
	for field := range exempt {
		if obj, _, _ := types.LookupFieldOrMethod(tn.Type(), false, pkg, field); obj == nil || !fields[obj] {
			t.Errorf("the exemptions name %s, which %s.%s no longer has", field, pkg.Name(), name)
		}
	}
}
