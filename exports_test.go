package entangling_test

import (
	"go/ast"
	"go/parser"
	"go/token"
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
	"client.Client.WaitResult":  "SDK method for job clients outside this module",
	"client.Client.UploadTrace": "SDK method for job clients outside this module",
	"client.Client.Healthz":     "SDK method for job clients outside this module",
	"harness.RunTrace":          "benchmark's tests run a single trace through it",
	"trace.SliceSource":         "the record stream of the cpu, trace and workload tests",
	"Unwrap":                    "errors.Is and errors.As call it on every typed error",
}

// TestInternalExportsHaveCallers fails on an exported top-level func,
// method or type under internal/ that no non-test Go file of the
// module (benchmark/ included) refers to. Such a name is either dead
// or a test helper, which belongs in the package's export_test.go.
//
// The check is by name: a func or type counts as used when its own
// package names it or another package selects it through an import
// of that package; a method counts as used when any file selects a
// field or method of that name. A package that only tests import
// (leakcheck, faultinject) is test support and is not checked. An
// allowlist entry that no longer matches an unused export fails too.
func TestInternalExportsHaveCallers(t *testing.T) {
	type decl struct {
		key  string // pkg.Name or pkg.Type.Method
		name string
		pos  token.Pos
	}
	const module = "entangling"
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // directory -> non-test files
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
			f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
			for _, im := range f.Imports {
				ip, _ := strconv.Unquote(im.Path.Value)
				testImports[ip] = true
			}
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		files[dir] = append(files[dir], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var decls []decl
	declIdents := map[*ast.Ident]bool{}
	// idents[dir] holds the identifiers each package's files use;
	// selected[importPath] the names selected through an import of it.
	idents := map[string]map[string]bool{}
	selected := map[string]map[string]bool{}
	methodsUsed := map[string]bool{}
	imported := map[string]bool{} // import paths of non-test files
	for dir, fs := range files {
		for _, f := range fs {
			if !strings.HasPrefix(dir, "internal/") {
				continue
			}
			pkg := f.Name.Name
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						// A type's own methods do not use it.
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								declIdents[id] = true
							}
							return true
						})
					}
					if !d.Name.IsExported() {
						continue
					}
					declIdents[d.Name] = true
					key := pkg + "." + d.Name.Name
					if d.Recv != nil {
						key = pkg + "." + recvType(d.Recv.List[0].Type) + "." + d.Name.Name
					}
					decls = append(decls, decl{key, d.Name.Name, d.Name.Pos()})
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.IsExported() {
							declIdents[ts.Name] = true
							decls = append(decls, decl{pkg + "." + ts.Name.Name, ts.Name.Name, ts.Name.Pos()})
						}
					}
				}
			}
		}
	}
	for dir, fs := range files {
		own := map[string]bool{}
		idents[dir] = own
		for _, f := range fs {
			imports := map[string]string{} // local name -> import path
			for _, im := range f.Imports {
				ip, _ := strconv.Unquote(im.Path.Value)
				name := path.Base(ip)
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = ip
				imported[ip] = true
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					methodsUsed[n.Sel.Name] = true
					if x, ok := n.X.(*ast.Ident); ok {
						if ip, ok := imports[x.Name]; ok {
							if selected[ip] == nil {
								selected[ip] = map[string]bool{}
							}
							selected[ip][n.Sel.Name] = true
						}
					}
				case *ast.Ident:
					if !declIdents[n] {
						own[n.Name] = true
					}
				}
				return true
			})
		}
	}

	var unused []string
	allowed := map[string]bool{}
	for _, d := range decls {
		dir := filepath.ToSlash(filepath.Dir(fset.Position(d.pos).Filename))
		if testImports[module+"/"+dir] && !imported[module+"/"+dir] {
			continue
		}
		isMethod := strings.Count(d.key, ".") == 2
		used := methodsUsed[d.name]
		if !isMethod {
			used = idents[dir][d.name] || selected[module+"/"+dir][d.name]
		}
		key := d.key
		if _, ok := unusedExportAllowed[d.name]; ok && isMethod {
			key = d.name
		}
		switch _, ok := unusedExportAllowed[key]; {
		case used:
		case ok:
			allowed[key] = true
		default:
			unused = append(unused, d.key+" ("+fset.Position(d.pos).String()+")")
		}
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

// recvType returns the type name of a method receiver.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
