package analysis_test

import (
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"netpart/internal/analysis"
)

// FuzzProtoExtract feeds arbitrary well-typed Go sources to the protocol
// extractor. The contract under fuzz: ExtractProto never panics, and every
// failure is a clean *UnextractableError diagnostic — the shapes outside
// the extractable fragment (goto, range loops, selects, non-affine peers
// inside communicating regions) must be rejected, not crashed on.
// Ill-typed inputs are skipped: production extraction only runs on
// loader-checked packages, and netpartverify refuses packages with type
// errors before extracting.
func FuzzProtoExtract(f *testing.F) {
	seeds := []string{
		// A clean extractable pairwise exchange.
		`package p
type tr struct{ r, n int }
func (t *tr) Rank() int { return t.r }
func (t *tr) Size() int { return t.n }
func (t *tr) Send(dst int, b []byte) error { return nil }
func (t *tr) Recv(src int) ([]byte, error) { return nil, nil }
func proto(t *tr) {
	if t.Rank() == 0 {
		t.Send(1, nil)
	} else {
		t.Recv(0)
	}
}`,
		// goto inside a communicating region: unextractable.
		`package p
type tr struct{}
func (t *tr) Send(dst int, b []byte) error { return nil }
func proto(t *tr) {
retry:
	t.Send(1, nil)
	goto retry
}`,
		// range loop over a channel with comm: unextractable.
		`package p
type tr struct{}
func (t *tr) Send(dst int, b []byte) error { return nil }
func proto(t *tr, ch chan int) {
	for v := range ch {
		t.Send(v, nil)
	}
}`,
		// select with comm clauses: unextractable.
		`package p
type tr struct{}
func (t *tr) Recv(src int) ([]byte, error) { return nil, nil }
func proto(t *tr, ch chan int) {
	select {
	case <-ch:
		t.Recv(0)
	default:
	}
}`,
		// Non-affine send destination: unextractable.
		`package p
type tr struct{ r int }
func (t *tr) Rank() int { return t.r }
func (t *tr) Send(dst int, b []byte) error { return nil }
func proto(t *tr) {
	t.Send(t.Rank()*t.Rank(), nil)
}`,
		// No communication at all: unextractable with a clean reason.
		`package p
func proto() int { return 42 }`,
		// Unknown-bound loop with parity guard: extractable with params.
		`package p
type tr struct{ r, n int }
func (t *tr) Rank() int { return t.r }
func (t *tr) Size() int { return t.n }
func (t *tr) Send(dst int, b []byte) error { return nil }
func (t *tr) Recv(src int) ([]byte, error) { return nil, nil }
func proto(t *tr, iters int) {
	for i := 0; i < iters; i++ {
		if t.Rank()%2 == 0 && t.Rank()+1 < t.Size() {
			t.Send(t.Rank()+1, nil)
		}
		if t.Rank()%2 == 1 {
			t.Recv(t.Rank() - 1)
		}
	}
}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		pkg, file := checkSource(src)
		if pkg == nil {
			return // not Go, or ill-typed: extraction only ever sees checked packages
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			proto, err := analysis.ExtractProto(pkg, nil, fd)
			if err != nil {
				var ue *analysis.UnextractableError
				if !errors.As(err, &ue) {
					t.Fatalf("%s: error is %T, want *UnextractableError: %v", fd.Name.Name, err, err)
				}
				if ue.Reason == "" {
					t.Fatalf("%s: unextractable diagnostic has no reason", fd.Name.Name)
				}
				continue
			}
			if proto == nil || len(proto.Ops) == 0 {
				t.Fatalf("%s: extraction succeeded with an empty protocol", fd.Name.Name)
			}
		}
	})
}

// checkSource parses and typechecks one self-contained source file the way
// the loader would, returning nil for sources it would have rejected.
func checkSource(src string) (*analysis.Package, *ast.File) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments)
	if err != nil {
		return nil, nil
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: importer.Default(), Error: func(error) {}}
	tpkg, err := conf.Check("fuzz", fset, []*ast.File{file}, info)
	if err != nil {
		return nil, nil
	}
	return &analysis.Package{Path: "fuzz", Fset: fset, Files: []*ast.File{file}, Types: tpkg, Info: info}, file
}
