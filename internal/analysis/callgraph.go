package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the call-graph half of the interprocedural engine behind
// allocfree, msgproto, and the determinism analyzer's helper-call
// propagation. It builds one module-wide graph over every package a Loader
// has type-checked: nodes are declared functions and methods (closure
// bodies fold into their enclosing declaration — a closure's allocations
// and calls are charged where the closure is created), and edges are
//
//   - direct calls and method calls, resolved through go/types object
//     identity (the loader shares one type-checker universe, so a
//     *types.Func compares equal across packages — facade re-exports
//     resolve like any other call);
//   - interface method calls, bounded by type-set approximation: the
//     possible targets are the corresponding methods of every named
//     concrete type in the loaded module that implements the interface
//     (summary.go unions the target summaries; an interface with no
//     in-module implementation is treated conservatively);
//   - indirect calls through func values, which stay unresolved — except
//     calls through struct fields declared //netpart:purecallback, the
//     annotation-callback contract (see summary.go), and calls through
//     local closure variables, whose bodies are already folded into the
//     enclosing node.
//
// The graph is condensed into strongly connected components (Tarjan) so
// summary.go can run its bottom-up fixpoint: Tarjan emits sink components
// first, which is exactly callee-before-caller order.

// FuncNode is one declared function or method in the call graph, carrying
// the intraprocedural facts summary.go seeds its fixpoint with.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls lists every call site in the declaration (closure bodies
	// included), in source order.
	Calls []*Callsite
	// DirectAllocs are the allocation sites outside guarded slow paths,
	// populated by summary.go's scan and already filtered through //nolint
	// suppressions so a waived site never propagates to callers.
	DirectAllocs []*Site
	// ParamEscapes marks parameters (by signature index) whose value is
	// stored beyond the call: assigned to a field or package-level
	// variable, or sent on a channel. Approximate (direct stores only);
	// callers that lend scratch buffers to an escaping callee cannot
	// assume the buffer stays theirs.
	ParamEscapes []bool
}

// Callsite is one call expression inside a FuncNode.
type Callsite struct {
	Call *ast.CallExpr
	// Guarded marks call sites inside a nil-/cap-guarded slow path
	// (isGuardedSlowPath); the allocation solve skips them, the
	// determinism solve does not (a guard sanctions allocation, not
	// nondeterminism).
	Guarded bool
	// InReturn marks calls that are a direct child of a return statement
	// (the fmt.Errorf failure-path exemption).
	InReturn bool
	// InPanic marks calls that are a direct argument of panic (the
	// panic(fmt.Sprintf(...)) failure-path exemption).
	InPanic bool
	// Targets are the resolved callees: one for static calls, the
	// type-set approximation for interface calls, empty for unresolved
	// indirect calls.
	Targets []*types.Func
	// Interface marks a call dispatched through an interface method.
	Interface bool
	// PureCallback marks indirect calls through struct fields annotated
	// //netpart:purecallback: the field's contract is that installed
	// callbacks are pure and allocation-free, so the call is trusted.
	PureCallback bool
	// IndirectDesc describes an unresolved indirect call ("" otherwise).
	IndirectDesc string
}

// Interproc is the module-wide interprocedural state: call graph, SCC
// order, and solved per-function summaries. Build once per Loader
// (Loader.Interproc caches it); analyzers reach it through Pass.Inter.
type Interproc struct {
	fset *token.FileSet
	pkgs []*Package

	nodes map[*types.Func]*FuncNode
	// sccs lists the strongly connected components bottom-up (callees
	// before callers).
	sccs [][]*FuncNode
	sums map[*types.Func]*Summary

	// detPkgs records which loaded packages carry //netpart:deterministic.
	detPkgs map[string]bool
	// pureFields holds struct fields annotated //netpart:purecallback.
	pureFields map[types.Object]bool
	// sups caches parsed //nolint suppressions per filename.
	sups map[string]map[int][]suppression

	ifaceCache map[*types.Func][]*types.Func
	concrete   []types.Type

	// asm holds the module's body-less declarations — functions written in
	// assembly — and whether each is modeled allocation-free (summary.go).
	asm map[*types.Func]bool

	// wire is the lazily built module-wide codec index (msgproto.go).
	wire *wireIndex
}

// Node returns the call-graph node of a declared function, or nil.
func (ip *Interproc) Node(fn *types.Func) *FuncNode { return ip.nodes[fn] }

// DeterministicPkg reports whether the loaded package at path carries the
// //netpart:deterministic directive.
func (ip *Interproc) DeterministicPkg(path string) bool { return ip.detPkgs[path] }

// BuildInterproc constructs the call graph and solves the summaries over
// the given packages (every package must come from one shared Loader, or
// at least one shared FileSet and type-checker universe).
func BuildInterproc(fset *token.FileSet, pkgs []*Package) *Interproc {
	ip := &Interproc{
		fset:       fset,
		nodes:      map[*types.Func]*FuncNode{},
		sums:       map[*types.Func]*Summary{},
		detPkgs:    map[string]bool{},
		pureFields: map[types.Object]bool{},
		sups:       map[string]map[int][]suppression{},
		ifaceCache: map[*types.Func][]*types.Func{},
		asm:        map[*types.Func]bool{},
	}
	for _, pkg := range pkgs {
		if pkg == nil || pkg.Types == nil || pkg.Info == nil {
			continue
		}
		ip.pkgs = append(ip.pkgs, pkg)
	}
	sort.Slice(ip.pkgs, func(i, j int) bool { return ip.pkgs[i].Path < ip.pkgs[j].Path })
	ip.collectFacts()
	ip.collectConcreteTypes()
	for _, pkg := range ip.pkgs {
		for _, fd := range enclosingFuncDecls(pkg.Files) {
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			node := &FuncNode{Fn: fn, Decl: fd, Pkg: pkg}
			ip.nodes[fn] = node
		}
		ip.collectAssembly(pkg)
	}
	for _, node := range ip.nodes {
		ip.scanNode(node)
	}
	ip.sccs = ip.condense()
	ip.solve()
	return ip
}

// collectFacts gathers package directives, purecallback fields, and
// suppression tables.
func (ip *Interproc) collectFacts() {
	for _, pkg := range ip.pkgs {
		if packageHasDirective(pkg.Files, "netpart:deterministic") {
			ip.detPkgs[pkg.Path] = true
		}
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			ip.sups[name] = parseSuppressions(pkg.Fset, f)
			ast.Inspect(f, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					if !hasDirective(field.Doc, "netpart:purecallback") && !hasDirective(field.Comment, "netpart:purecallback") {
						continue
					}
					for _, id := range field.Names {
						if obj := pkg.Info.Defs[id]; obj != nil {
							ip.pureFields[obj] = true
						}
					}
				}
				return true
			})
		}
	}
}

// collectConcreteTypes lists every named non-interface type of the module
// (for interface type-set approximation).
func (ip *Interproc) collectConcreteTypes() {
	for _, pkg := range ip.pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			ip.concrete = append(ip.concrete, named)
		}
	}
}

// suppressedAt reports whether a well-formed suppression at pos covers the
// analyzer (used while building summaries, so waived sites never
// propagate).
func (ip *Interproc) suppressedAt(pos token.Pos, analyzer string) bool {
	p := ip.fset.Position(pos)
	return suppressed(ip.sups[p.Filename][p.Line], analyzer)
}

// scanNode extracts the call sites of one declaration, tracking the
// guarded-slow-path and return contexts the allocation solve needs.
// Closure bodies are included (folded into the enclosing node).
func (ip *Interproc) scanNode(node *FuncNode) {
	info := node.Pkg.Info
	var walk func(n ast.Node, guarded bool)
	walk = func(root ast.Node, guarded bool) {
		walkStack(root, func(n ast.Node, stack []ast.Node) bool {
			if ifs, ok := n.(*ast.IfStmt); ok && !guarded && isGuardedSlowPath(ifs) {
				// The guard's init/cond stay in the current context, the
				// body becomes the sanctioned slow path, and the else
				// branch re-enters the current context.
				if ifs.Init != nil {
					walk(ifs.Init, guarded)
				}
				walk(ifs.Cond, guarded)
				walk(ifs.Body, true)
				if ifs.Else != nil {
					walk(ifs.Else, guarded)
				}
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			cs := &Callsite{Call: call, Guarded: guarded}
			if len(stack) > 0 {
				switch parent := stack[len(stack)-1].(type) {
				case *ast.ReturnStmt:
					cs.InReturn = true
				case *ast.CallExpr:
					if id, ok := ast.Unparen(parent.Fun).(*ast.Ident); ok && id.Name == "panic" && isBuiltin(info, id) {
						cs.InPanic = true
					}
				}
			}
			ip.resolveCallsite(node, cs, info)
			node.Calls = append(node.Calls, cs)
			return true
		})
	}
	walk(node.Decl.Body, false)
}

// resolveCallsite classifies one call: static, interface-dispatched,
// pure-callback, local-closure, or unresolved indirect.
func (ip *Interproc) resolveCallsite(node *FuncNode, cs *Callsite, info *types.Info) {
	call := cs.Call
	fun := ast.Unparen(call.Fun)

	// Conversions and builtins are not call edges (summary.go's
	// intraprocedural scan handles their allocation behavior). Package
	// unsafe's functions (unsafe.SliceData and the like) are builtins
	// reached through a selector; none of them allocates.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		cs.IndirectDesc = "" // conversion
		cs.Targets = nil
		return
	}
	if id, ok := fun.(*ast.Ident); ok {
		if isBuiltin(info, id) {
			return
		}
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok && isBuiltin(info, sel.Sel) {
		return
	}

	if fn := calleeFunc(info, call); fn != nil {
		// container/heap functions dispatch to the container's own methods
		// (Push/Pop/Swap/Less/Len) — resolve the edge to those in-module
		// methods instead of treating the opaque stdlib body conservatively.
		if fn.Pkg() != nil && fn.Pkg().Path() == "container/heap" && len(call.Args) > 0 {
			if t := info.TypeOf(call.Args[0]); t != nil {
				for _, mname := range [...]string{"Len", "Less", "Swap", "Push", "Pop"} {
					obj, _, _ := types.LookupFieldOrMethod(t, true, node.Pkg.Types, mname)
					if m, ok := obj.(*types.Func); ok {
						cs.Targets = append(cs.Targets, m)
					}
				}
				if len(cs.Targets) > 0 {
					return
				}
			}
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
				cs.Interface = true
				cs.Targets = ip.interfaceTargets(fn)
				return
			}
		}
		cs.Targets = []*types.Func{fn}
		return
	}

	// Indirect: func value, field callback, or local closure.
	switch x := fun.(type) {
	case *ast.SelectorExpr:
		if obj := info.Uses[x.Sel]; obj != nil {
			if v, ok := obj.(*types.Var); ok && v.IsField() && ip.pureFields[obj] {
				cs.PureCallback = true
				return
			}
		}
		cs.IndirectDesc = exprText(x)
	case *ast.Ident:
		if v, ok := identObj(info, x).(*types.Var); ok && !v.IsField() {
			// A local func variable: the closure assigned to it (if any)
			// is folded into this node already; charging the call again
			// would double-count. Non-local func values stay unresolved.
			if v.Pos() >= node.Decl.Pos() && v.Pos() <= node.Decl.End() {
				return
			}
		}
		cs.IndirectDesc = x.Name
	default:
		cs.IndirectDesc = exprText(call.Fun)
	}
}

// interfaceTargets approximates the type set of an interface method call:
// the matching method of every named module type implementing the
// interface.
func (ip *Interproc) interfaceTargets(m *types.Func) []*types.Func {
	if ts, ok := ip.ifaceCache[m]; ok {
		return ts
	}
	var targets []*types.Func
	sig := m.Type().(*types.Signature)
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	if iface != nil {
		for _, ct := range ip.concrete {
			ptr := types.NewPointer(ct)
			if !types.Implements(ct, iface) && !types.Implements(ptr, iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
			if fn, ok := obj.(*types.Func); ok {
				targets = append(targets, fn)
			}
		}
	}
	sort.Slice(targets, func(i, j int) bool { return funcLabel(targets[i]) < funcLabel(targets[j]) })
	ip.ifaceCache[m] = targets
	return targets
}

// condense runs Tarjan's SCC algorithm over the graph. Components come out
// in reverse topological order of the condensation — callees before
// callers — which is the order the summary fixpoint wants.
func (ip *Interproc) condense() [][]*FuncNode {
	// Deterministic node order keeps SCC numbering (and thus any
	// diagnostics derived from solve order) stable across runs.
	order := make([]*FuncNode, 0, len(ip.nodes))
	for _, n := range ip.nodes {
		order = append(order, n)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].Decl.Pos() < order[j].Decl.Pos() })

	index := map[*FuncNode]int{}
	low := map[*FuncNode]int{}
	onStack := map[*FuncNode]bool{}
	var stack []*FuncNode
	var sccs [][]*FuncNode
	next := 0

	var strong func(v *FuncNode)
	strong = func(v *FuncNode) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, cs := range v.Calls {
			for _, t := range cs.Targets {
				w := ip.nodes[t]
				if w == nil {
					continue
				}
				if _, seen := index[w]; !seen {
					strong(w)
					if low[w] < low[v] {
						low[v] = low[w]
					}
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
		}
		if low[v] == index[v] {
			var scc []*FuncNode
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, v := range order {
		if _, seen := index[v]; !seen {
			strong(v)
		}
	}
	return sccs
}

// funcLabel renders a function for diagnostics: "pkg.Fn" or
// "pkg.(Recv).Fn", with the module prefix trimmed.
func funcLabel(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
		if i := strings.LastIndex(pkg, "/"); i >= 0 {
			pkg = pkg[i+1:]
		}
		pkg += "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return pkg + "(" + named.Obj().Name() + ")." + fn.Name()
		}
	}
	return pkg + fn.Name()
}
