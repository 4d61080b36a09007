package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// moduleDecls scans the module's non-test Go files and returns, per package
// path, every declared name in the qualified forms the config uses: Func,
// Type, Type.Method, Type.Field, Const, Var.
func moduleDecls(t *testing.T, root string) map[string]map[string]bool {
	t.Helper()
	decls := map[string]map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix("repro/"+filepath.ToSlash(rel), "/.")
		names := decls[pkg]
		if names == nil {
			names = map[string]bool{}
			decls[pkg] = names
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				name := decl.Name.Name
				if decl.Recv != nil {
					name = recvName(decl.Recv.List[0].Type) + "." + name
				}
				names[name] = true
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							names[n.Name] = true
						}
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
						var members *ast.FieldList
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							members = typ.Fields
						case *ast.InterfaceType:
							members = typ.Methods
						}
						if members == nil {
							continue
						}
						for _, m := range members.List {
							for _, n := range m.Names {
								names[spec.Name.Name+"."+n.Name] = true
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// recvName strips pointers and type parameters from a method receiver.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// TestConfiguredNamesExist: every repro/... entry in trodlint.yaml and in
// DefaultConfig names a package or declaration that exists. An analyzer
// matches names silently, so an entry left behind by a rename or deletion
// would otherwise just stop guarding anything.
func TestConfiguredNamesExist(t *testing.T) {
	root := filepath.Join("..", "..")
	decls := moduleDecls(t, root)
	repo, err := lint.LoadConfig(filepath.Join(root, "trodlint.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	for src, cfg := range map[string]*lint.Config{"trodlint.yaml": repo, "DefaultConfig": lint.DefaultConfig()} {
		packages := [][]string{cfg.Wirecode.Packages, cfg.Detpath.Packages, cfg.Durerr.Packages, {cfg.Wirecode.Protocol}}
		for _, list := range packages {
			for _, pkg := range list {
				if strings.HasPrefix(pkg, "repro/") && decls[pkg] == nil {
					t.Errorf("%s: package %s does not exist", src, pkg)
				}
			}
		}
		names := [][]string{cfg.Lockhold.Mutexes, cfg.Lockhold.Blocking, cfg.Boundalloc.Sources,
			cfg.Boundalloc.Clamps, cfg.Boundalloc.Limits, cfg.Detpath.Forbidden, cfg.Durerr.Calls,
			cfg.Nosleep.Handlers, cfg.Nosleep.Forbidden}
		for _, list := range names {
			for _, q := range list {
				if !strings.HasPrefix(q, "repro/") {
					continue
				}
				slash := strings.LastIndex(q, "/")
				dot := strings.Index(q[slash:], ".")
				if dot < 0 {
					t.Errorf("%s: %s is not a qualified name", src, q)
					continue
				}
				pkg, name := q[:slash+dot], q[slash+dot+1:]
				if names := decls[pkg]; names == nil || (name != "*" && !names[name]) {
					t.Errorf("%s: %s names nothing declared in the module", src, q)
				}
			}
		}
	}
}
