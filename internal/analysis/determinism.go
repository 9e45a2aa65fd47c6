package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// Determinism enforces the paper's central operational requirement on the
// packages marked //netpart:deterministic: the partitioning pipeline
// (estimator, search, experiment assembly, rendered tables) must produce
// byte-identical output for identical inputs — that is what makes the
// parallel experiment engine's index-ordered assembly sound and what the
// golden-output tests diff against. Two hazard classes are rejected:
//
//   - the global math/rand source (auto-seeded since Go 1.20) — construct
//     a seeded *rand.Rand instead;
//   - iteration over a map that feeds ordered output (appends to an outer
//     slice, direct printing, writer calls, string building, channel
//     sends) — map order is randomized per run. Collect-then-sort is
//     accepted: an append sink is waived when a sorting call (sort.*,
//     slices.*, or a sort-named helper) follows the loop in the same
//     function.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbids global rand and order-dependent map iteration in //netpart:deterministic packages",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) error {
	if !packageHasDirective(pass.Files, "netpart:deterministic") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkGlobalRand(pass, call)
			}
			return true
		})
	}
	for _, fd := range enclosingFuncDecls(pass.Files) {
		checkMapRanges(pass, fd)
	}
	propagateDeterminism(pass)
	return nil
}

// propagateDeterminism is the interprocedural half of the rand check: a
// deterministic package must not reach the global rand source through
// helper calls either. Using the solved summaries (Pass.Inter), every call
// from this package to a function of an unmarked module package whose call
// tree touches auto-seeded rand is reported at the call site with the
// provenance chain. Calls into other //netpart:deterministic packages are
// skipped — their own analysis run reports the origin.
func propagateDeterminism(pass *Pass) {
	ip := pass.Inter
	if ip == nil {
		return
	}
	for _, fd := range enclosingFuncDecls(pass.Files) {
		fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if fn == nil {
			continue
		}
		node := ip.Node(fn)
		if node == nil {
			continue
		}
		for _, cs := range node.Calls {
			var rand *Site
			var via *types.Func
			for _, target := range cs.Targets {
				tn := ip.Node(target)
				if tn == nil {
					continue // stdlib: the direct check covers it
				}
				if target.Pkg() != nil && ip.DeterministicPkg(target.Pkg().Path()) {
					continue // callee package is checked in its own right
				}
				sum := ip.Summary(target)
				if sum == nil {
					continue
				}
				if len(sum.Rand) > 0 {
					rand, via = sum.Rand[0], target
					break
				}
			}
			if rand != nil {
				pass.Reportf(cs.Call.Pos(), "call to %s reaches the global rand source in a deterministic package: %s", funcLabel(via), ip.RenderChain(rand))
			}
		}
	}
}

// seededRandConstructors build explicit generators and are the sanctioned
// replacement for the global source.
var seededRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true,
}

func checkGlobalRand(pass *Pass, call *ast.CallExpr) {
	pkgPath, name := calleePkgFunc(pass.TypesInfo, call)
	if (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && !seededRandConstructors[name] {
		pass.Reportf(call.Pos(), "global %s.%s is auto-seeded and nondeterministic; construct a seeded *rand.Rand", pkgPath[strings.LastIndex(pkgPath, "/")+1:], name)
	}
}

// checkMapRanges flags range-over-map loops whose bodies feed ordered
// output.
func checkMapRanges(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok || !isMapType(info, rng.X) {
			return true
		}
		sorted := sortFollows(pass, fd, rng)
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			switch s := m.(type) {
			case *ast.SendStmt:
				pass.Reportf(s.Pos(), "channel send inside range over map %s leaks map order; iterate a sorted key slice", exprText(rng.X))
			case *ast.AssignStmt:
				checkMapRangeAssign(pass, rng, s, sorted)
			case *ast.CallExpr:
				checkMapRangeCall(pass, rng, s)
			}
			return true
		})
		return true
	})
}

// checkMapRangeAssign handles the two assignment-shaped sinks: appends to
// slices declared outside the loop and += string building.
func checkMapRangeAssign(pass *Pass, rng *ast.RangeStmt, s *ast.AssignStmt, sorted bool) {
	info := pass.TypesInfo
	if s.Tok.String() == "+=" && len(s.Lhs) == 1 {
		if t := info.TypeOf(s.Lhs[0]); t != nil {
			if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 && declaredOutside(info, s.Lhs[0], rng) {
				pass.Reportf(s.Pos(), "string built inside range over map %s depends on map order; iterate a sorted key slice", exprText(rng.X))
			}
		}
		return
	}
	for _, rhs := range s.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" || len(call.Args) == 0 {
			continue
		}
		if !declaredOutside(info, call.Args[0], rng) {
			continue
		}
		if sorted {
			continue // collect-then-sort: order is re-established below the loop
		}
		pass.Reportf(call.Pos(), "append inside range over map %s builds an order-dependent slice; sort it afterwards or iterate sorted keys", exprText(rng.X))
	}
}

// checkMapRangeCall flags direct output calls inside a map-range body.
func checkMapRangeCall(pass *Pass, rng *ast.RangeStmt, call *ast.CallExpr) {
	if pkgPath, name := calleePkgFunc(pass.TypesInfo, call); pkgPath == "fmt" &&
		(strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
		pass.Reportf(call.Pos(), "fmt.%s inside range over map %s emits output in map order; iterate a sorted key slice", name, exprText(rng.X))
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Printf", "Print", "Println":
		if fn := calleeFunc(pass.TypesInfo, call); fn != nil {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				pass.Reportf(call.Pos(), "%s inside range over map %s emits output in map order; iterate a sorted key slice", sel.Sel.Name, exprText(rng.X))
			}
		}
	}
}

// declaredOutside reports whether the expression's root object is declared
// outside the range statement (package scope, parameter, or an earlier
// local). Selector targets (fields) count as outside.
func declaredOutside(info *types.Info, e ast.Expr, rng *ast.RangeStmt) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := identObj(info, x)
		if obj == nil {
			return false
		}
		return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
	case *ast.SelectorExpr, *ast.IndexExpr:
		return true
	}
	return false
}

// sortFollows reports whether a sorting call appears after the range loop
// inside the same function — the collect-then-sort idiom. A sorting call is
// anything from the sort or slices packages, or a call to a function whose
// name mentions "sort" (zero-dependency packages carry their own helpers).
func sortFollows(pass *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rng.End() {
			return true
		}
		if pkgPath, _ := calleePkgFunc(pass.TypesInfo, call); pkgPath == "sort" || pkgPath == "slices" {
			found = true
		}
		if fn := calleeFunc(pass.TypesInfo, call); fn != nil && strings.Contains(strings.ToLower(fn.Name()), "sort") {
			found = true
		}
		return !found
	})
	return found
}

// exprText renders a short expression for diagnostics.
func exprText(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprText(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprText(x.X) + "[...]"
	case *ast.CallExpr:
		return exprText(x.Fun) + "(...)"
	}
	return fmt.Sprintf("%T", e)
}
