package entangling_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unusedExportAllowed names the exports under internal/ that may have
// no caller in non-test code, each with the reason it stays.
var unusedExportAllowed = map[string]string{
	"harness.RunTrace":  "benchmark's tests run a single trace through it",
	"trace.SliceSource": "the record stream of the cpu, trace and workload tests",
}

// stdlibCalls declares the interfaces whose methods the standard
// library calls on the values non-test code hands it.
const stdlibCalls = `package stdlib

import "fmt"

type (
	stringer  fmt.Stringer                // fmt's %s and %v
	errorer   error                       // fmt, errors
	unwrapper interface{ Unwrap() error } // errors.Is and errors.As
)
`

// moduleImporter type-checks the module's packages (benchmark/
// included) from their non-test files, recording every use in one
// types.Info, and leaves the standard library to the default importer.
type moduleImporter struct {
	fset  *token.FileSet
	std   types.Importer
	files map[string][]*ast.File // import path -> non-test files
	pkgs  map[string]*types.Package
	info  *types.Info
}

func (m *moduleImporter) Import(ip string) (*types.Package, error) {
	if p, ok := m.pkgs[ip]; ok {
		return p, nil
	}
	files, ok := m.files[ip]
	if !ok {
		return m.std.Import(ip)
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(ip, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[ip] = p
	return p, nil
}

// TestInternalExportsHaveCallers fails on an exported top-level func,
// method or type under internal/ that no non-test Go file of the
// module (benchmark/ included) uses. Such a name is either dead or a
// test helper, which belongs in the package's export_test.go.
//
// Uses are resolved by type. A func or type counts as used when
// non-test code outside its own declaration refers to it; a type's
// own method receivers do not count. A method counts as used when
// non-test code selects it on its receiver type (embedding included),
// or when its type satisfies an interface, named or literal, whose
// method of that name non-test code calls, or the standard library
// does (stdlibCalls). Struct fields are not checked: encoding/json
// reaches them by reflection. A package that only tests import
// (leakcheck, faultinject) is test support and is not checked. An
// allowlist entry that no longer matches an unused export fails too.
func TestInternalExportsHaveCallers(t *testing.T) {
	const module = "entangling"
	m := &moduleImporter{
		fset:  token.NewFileSet(),
		std:   importer.Default(),
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	testImports := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		if strings.HasSuffix(p, "_test.go") {
			f, err := parser.ParseFile(m.fset, p, nil, parser.ImportsOnly)
			for _, im := range f.Imports {
				ip, _ := strconv.Unquote(im.Path.Value)
				testImports[ip] = true
			}
			return err
		}
		f, err := parser.ParseFile(m.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := path.Join(module, filepath.ToSlash(filepath.Dir(p)))
		m.files[ip] = append(m.files[ip], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	imported := map[string]bool{} // import paths of non-test files
	var paths []string
	for ip, files := range m.files {
		paths = append(paths, ip)
		for _, f := range files {
			for _, im := range f.Imports {
				p, _ := strconv.Unquote(im.Path.Value)
				imported[p] = true
			}
		}
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := m.Import(ip); err != nil {
			t.Fatalf("type-checking %s: %v", ip, err)
		}
	}

	// The checked declarations, and the source span of each: a use
	// inside its own declaration (recursion, a type's own methods)
	// does not count.
	type span struct{ pos, end token.Pos }
	decls := map[types.Object]span{}
	var receivers []span
	for _, ip := range paths {
		if !strings.HasPrefix(ip, module+"/internal/") || (testImports[ip] && !imported[ip]) {
			continue
		}
		for _, f := range m.files[ip] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						receivers = append(receivers, span{d.Recv.Pos(), d.Recv.End()})
					}
					if d.Name.IsExported() {
						decls[m.info.Defs[d.Name]] = span{d.Pos(), d.End()}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.IsExported() {
							decls[m.info.Defs[ts.Name]] = span{ts.Pos(), ts.End()}
						}
					}
				}
			}
		}
	}
	within := func(p token.Pos, s span) bool { return s.pos <= p && p < s.end }
	inReceiver := func(p token.Pos) bool {
		for _, r := range receivers {
			if within(p, r) {
				return true
			}
		}
		return false
	}

	used := map[types.Object]bool{}
	for id, obj := range m.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		s, ok := decls[obj]
		if !ok || within(id.Pos(), s) {
			continue
		}
		if _, isType := obj.(*types.TypeName); isType && inReceiver(id.Pos()) {
			continue
		}
		used[obj] = true
	}

	// A method called through an interface marks the method of that
	// name on every named type that satisfies the interface.
	type ifaceCall struct {
		iface *types.Interface
		name  string
	}
	calls := map[ifaceCall]bool{}
	f, err := parser.ParseFile(m.fset, "stdlib.go", stdlibCalls, 0)
	if err != nil {
		t.Fatal(err)
	}
	std, err := (&types.Config{Importer: m.std}).Check("stdlib", m.fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range std.Scope().Names() {
		iface := std.Scope().Lookup(name).Type().Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			calls[ifaceCall{iface, iface.Method(i).Name()}] = true
		}
	}
	for _, sel := range m.info.Selections {
		if sel.Kind() == types.FieldVal || !types.IsInterface(sel.Recv()) {
			continue
		}
		calls[ifaceCall{sel.Recv().Underlying().(*types.Interface), sel.Obj().Name()}] = true
	}
	for _, p := range m.pkgs {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			for c := range calls {
				if !types.Implements(tn.Type(), c.iface) && !types.Implements(types.NewPointer(tn.Type()), c.iface) {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, p, c.name)
				if fn, ok := obj.(*types.Func); ok {
					used[fn.Origin()] = true
				}
			}
		}
	}

	var unused []string
	allowed := map[string]bool{}
	for obj, s := range decls {
		if used[obj] {
			continue
		}
		key := obj.Pkg().Name() + "." + obj.Name()
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			recv := sig.Recv().Type()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			key = obj.Pkg().Name() + "." + recv.(*types.Named).Obj().Name() + "." + obj.Name()
		}
		if _, ok := unusedExportAllowed[key]; ok {
			allowed[key] = true
			continue
		}
		unused = append(unused, key+" ("+m.fset.Position(s.pos).String()+")")
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported %s has no caller outside tests", u)
	}
	for name := range unusedExportAllowed {
		if !allowed[name] {
			t.Errorf("allowlisted %s has a caller outside tests or no longer exists", name)
		}
	}
}
