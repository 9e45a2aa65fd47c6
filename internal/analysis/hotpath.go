package analysis

import (
	"go/ast"
	"go/types"
)

// The guard and declaration helpers behind the summary's allocation
// recogniser (summary.go): which if statements are sanctioned slow paths,
// whether an appended-to local slice was declared with capacity, and which
// variable a closure captures.

// localSliceDecl finds the declaration node of obj inside the function
// declaration root (nil when obj is not a local of this function).
func localSliceDecl(root *ast.FuncDecl, obj types.Object) ast.Node {
	if obj.Pos() < root.Pos() || obj.Pos() > root.End() {
		return nil // declared outside this function
	}
	var decl ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range d.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Pos() == obj.Pos() {
					decl = d
					return false
				}
			}
		case *ast.ValueSpec:
			for _, id := range d.Names {
				if id.Pos() == obj.Pos() {
					decl = d
					return false
				}
			}
		case *ast.Field:
			for _, id := range d.Names {
				if id.Pos() == obj.Pos() {
					decl = d // parameter or receiver
					return false
				}
			}
		}
		return decl == nil
	})
	if _, isField := decl.(*ast.Field); isField {
		return nil // parameters are caller-owned
	}
	return decl
}

// declHasCapacity reports whether the local declaration gives the slice
// usable capacity: a make call, a call result (assumed sized), or a
// reslice of existing storage. `var x []T`, `x := []T{}` and
// `x := []T(nil)` do not.
func declHasCapacity(info *types.Info, decl ast.Node, obj types.Object) bool {
	var rhs ast.Expr
	switch d := decl.(type) {
	case *ast.AssignStmt:
		for i, lhs := range d.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Pos() == obj.Pos() && i < len(d.Rhs) {
				rhs = d.Rhs[i]
			}
		}
	case *ast.ValueSpec:
		for i, id := range d.Names {
			if id.Pos() == obj.Pos() && i < len(d.Values) {
				rhs = d.Values[i]
			}
		}
	}
	if rhs == nil {
		return false // var x []T — no storage
	}
	switch r := ast.Unparen(rhs).(type) {
	case *ast.CallExpr:
		if id, ok := ast.Unparen(r.Fun).(*ast.Ident); ok && id.Name == "make" && isBuiltin(info, id) {
			return len(r.Args) >= 2 // make with a size or capacity
		}
		if tv, ok := info.Types[r.Fun]; ok && tv.IsType() {
			return false // conversion like []T(nil)
		}
		return true // result of a function call: assume sized scratch
	case *ast.SliceExpr, *ast.IndexExpr, *ast.SelectorExpr, *ast.Ident:
		return true // view of existing storage
	case *ast.CompositeLit:
		return len(r.Elts) > 0 // non-empty literal at least holds its elements
	}
	return false
}

// isGuardedSlowPath recognizes the two sanctioned allocation guards: a nil
// comparison (lazy init, observer branches, optional features) and a
// cap/len inspection (grow-once scratch).
func isGuardedSlowPath(ifs *ast.IfStmt) bool {
	if condHasNilCompare(ifs.Cond) {
		return true
	}
	return condHasCapCall(ifs.Cond)
}

func condHasNilCompare(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			if _, _, ok := nilComparison(e); ok {
				found = true
			}
		}
		return !found
	})
	return found
}

func condHasCapCall(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && (id.Name == "cap" || id.Name == "len") {
				found = true
			}
		}
		return !found
	})
	return found
}

// capturedVar returns the name of a variable the closure captures from its
// enclosing function, or "".
func capturedVar(info *types.Info, fd *ast.FuncDecl, lit *ast.FuncLit) string {
	name := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || name != "" {
			return name == ""
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= fd.Pos() && v.Pos() < lit.Pos() {
			name = v.Name()
		}
		return true
	})
	return name
}

// isBuiltin reports whether the identifier resolves to a Go builtin.
func isBuiltin(info *types.Info, id *ast.Ident) bool {
	_, ok := info.Uses[id].(*types.Builtin)
	return ok
}
