package analysis

import (
	"go/ast"
	"go/types"
)

// ErrCheck rejects silently discarded error results in the commands
// (package main). The commands render the experiment tables whose bytes
// the golden tests diff; a swallowed Flush or Close error turns truncated
// output into a plausible-looking but wrong artifact, which is worse than
// a crash. Only bare
// expression statements are flagged: explicit `_ =` discards are visible
// decisions, and `defer f.Close()` on read-only files is accepted idiom.
// fmt printers and the never-failing strings.Builder / bytes.Buffer
// writers are exempt.
var ErrCheck = &Analyzer{
	Name: "errcheck",
	Doc:  "rejects discarded error results in package main",
	Run:  runErrCheck,
}

func runErrCheck(pass *Pass) error {
	if pass.Pkg.Name() != "main" {
		return nil
	}
	for _, fd := range enclosingFuncDecls(pass.Files) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := ast.Unparen(es.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, bad := discardsError(pass.TypesInfo, call); bad {
				pass.Reportf(call.Pos(), "%s returns an error that is discarded; handle it or assign to _ explicitly", name)
			}
			return true
		})
	}
	return nil
}

// discardsError reports whether the call's (unused) results include an
// error, along with a printable callee name.
func discardsError(info *types.Info, call *ast.CallExpr) (string, bool) {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return "", false
	}
	if !resultHasError(tv.Type) {
		return "", false
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return exprText(call.Fun), true // dynamic call through a func value
	}
	if exemptErrCallee(fn) {
		return "", false
	}
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		name = exprText(call.Fun)
	} else if fn.Pkg() != nil && fn.Pkg().Name() != "main" {
		name = fn.Pkg().Name() + "." + fn.Name()
	}
	return name, true
}

// resultHasError reports whether a call result type includes error.
func resultHasError(t types.Type) bool {
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// exemptErrCallee lists callees whose error results are conventionally
// ignored: fmt printers (stdout/stderr writes) and the never-failing
// builder/buffer writers.
func exemptErrCallee(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "fmt":
		return true
	case "strings", "bytes":
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			rt := sig.Recv().Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			if named, ok := rt.(*types.Named); ok {
				n := named.Obj().Name()
				return n == "Builder" || n == "Buffer"
			}
		}
	}
	return false
}
