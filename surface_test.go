// Surface test: every exported function, type and method under internal/
// has a reference in non-test code, so the exported surface is the
// surface the program runs. It parses the module's non-test files with
// go/parser alone (no type checker). Method matching is by name — any
// `.Name` selector anywhere counts — so it can call a method used when
// it is not, never the reverse.
package snnsec

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported internal/ symbols kept without a
// non-test reference — "pkg.Name" for functions and types,
// "pkg.Type.Name" for methods — each with the reason it stays.
var surfaceAllowlist = map[string]string{
	"tensor.MatMulNaiveOn":            "reference the blocked matmul kernels are checked against",
	"tensor.Conv2DPerImageOn":         "reference the batched convolution is checked against",
	"tensor.Conv2DBackwardPerImageOn": "reference the batched convolution gradients are checked against",
	"autodiff.GradCheck":              "finite-difference reference for op pullbacks, used by tests of several packages",
	"tensor.Tensor.AllClose":          "tolerance comparison shared by tests of several packages",
	"tensor.Tensor.HasNaN":            "non-finite check shared by tests of several packages",
	"dataset.WriteIDX":                "writes the IDX files the loader's tests and fuzz corpus read",
	"snn.PiecewiseLinear":             "surrogate-gradient ablation variant",
	"snn.SigmoidPrime":                "surrogate-gradient ablation variant",
	"snn.LatencyEncoder":              "input-encoding ablation variant",
	"snn.ConstantCurrentEncoder":      "input-encoding ablation variant",
	"nn.MaxPool":                      "pooling ablation variant; the one pool whose output stays a packed plane, which the serve and stream equivalence suites route spikes through",
	"snn.SpikeTrainEncoder":           "replays a recorded train; the batch reference the streaming tests of several packages compare against",
}

// surfaceStdlibMethods are method names a stdlib interface calls, so the
// program's own code need not.
var surfaceStdlibMethods = map[string]bool{
	"String": true, "Error": true, "Read": true, "Write": true, "Close": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
}

// surfaceKey names a top-level symbol by package import path, or a
// method by name alone (pkg empty).
type surfaceKey struct{ pkg, name string }

// surfaceDecl is one exported declaration under internal/.
type surfaceDecl struct {
	key   surfaceKey
	label string   // allowlist spelling
	node  ast.Node // the declaration; references inside it do not count
}

func TestExportedSurfaceHasNonTestCallers(t *testing.T) {
	const module = "snnsec"
	var decls []surfaceDecl
	refs := map[surfaceKey][]ast.Node{} // key -> enclosing declarations of its references
	fset := token.NewFileSet()
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
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		pkg := module
		if dir != "." {
			pkg = module + "/" + dir
		}
		if strings.HasPrefix(dir, "internal/") {
			decls = append(decls, exportedDecls(f, pkg)...)
		}
		collectRefs(f, pkg, refs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var unused []string
	allowed := map[string]bool{}
	for _, d := range decls {
		if slices.ContainsFunc(refs[d.key], func(encl ast.Node) bool { return encl != d.node }) {
			continue
		}
		if _, ok := surfaceAllowlist[d.label]; ok {
			allowed[d.label] = true
		} else {
			unused = append(unused, d.label)
		}
	}
	if len(unused) > 0 {
		slices.Sort(unused)
		unused = slices.Compact(unused) // a symbol declared once per build tag
		t.Errorf("%d exported internal/ symbols have no reference in non-test code; delete them or name them in surfaceAllowlist:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
	for name := range surfaceAllowlist {
		if !allowed[name] {
			t.Errorf("surfaceAllowlist names %s, which is referenced in non-test code or not declared; drop the entry", name)
		}
	}
	if len(surfaceAllowlist) > 15 {
		t.Errorf("surfaceAllowlist has %d entries; the budget is 15", len(surfaceAllowlist))
	}
}

// exportedDecls lists f's exported top-level functions, types and
// methods, leaving out methods named like a stdlib interface's.
func exportedDecls(f *ast.File, pkg string) []surfaceDecl {
	short := path.Base(pkg)
	var out []surfaceDecl
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			name := d.Name.Name
			switch {
			case !d.Name.IsExported():
			case d.Recv == nil:
				out = append(out, surfaceDecl{surfaceKey{pkg, name}, short + "." + name, d})
			case !surfaceStdlibMethods[name]:
				out = append(out, surfaceDecl{surfaceKey{"", name}, short + "." + receiverName(d.Recv.List[0].Type) + "." + name, d})
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.IsExported() {
					out = append(out, surfaceDecl{surfaceKey{pkg, ts.Name.Name}, short + "." + ts.Name.Name, ts})
				}
			}
		}
	}
	return out
}

// receiverName returns the type name of a receiver expression: T, *T,
// T[P] or *T[P].
func receiverName(e ast.Expr) string {
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

// collectRefs records, for every reference in f, the top-level
// declaration (FuncDecl or spec) that encloses it. Declared names,
// receiver lists and field names are not references.
func collectRefs(f *ast.File, pkg string, refs map[surfaceKey][]ast.Node) {
	imports := map[string]string{} // local name -> import path
	for _, im := range f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		local := path.Base(p)
		if im.Name != nil {
			local = im.Name.Name
		}
		imports[local] = p
	}
	walk := func(encl, n ast.Node) {
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						refs[surfaceKey{p, n.Sel.Name}] = append(refs[surfaceKey{p, n.Sel.Name}], encl)
						return false
					}
				}
				refs[surfaceKey{"", n.Sel.Name}] = append(refs[surfaceKey{"", n.Sel.Name}], encl)
				ast.Inspect(n.X, visit)
				return false
			case *ast.Field:
				if n.Type != nil {
					ast.Inspect(n.Type, visit)
				}
				return false
			case *ast.Ident:
				refs[surfaceKey{pkg, n.Name}] = append(refs[surfaceKey{pkg, n.Name}], encl)
			}
			return true
		}
		ast.Inspect(n, visit)
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			walk(d, d.Type)
			if d.Body != nil {
				walk(d, d.Body)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.TypeParams != nil {
						walk(s, s.TypeParams)
					}
					walk(s, s.Type)
				case *ast.ValueSpec:
					if s.Type != nil {
						walk(s, s.Type)
					}
					for _, v := range s.Values {
						walk(s, v)
					}
				}
			}
		}
	}
}
