package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"netpart/internal/analysis/protomc"
)

// Protocol extraction: the front end of netpartverify. A function annotated
// //netpart:lockstep is compiled into a symbolic protomc.Proto — a per-rank
// program of sends, receives, guards, and loops whose peers and bounds are
// affine expressions over (rank, P) — by symbolically evaluating the
// function body:
//
//   - rank and size bind from `r := tr.Rank()` / `s := tr.Size()` calls and
//     propagate through affine arithmetic (north := rank-1) and boolean
//     derivations (hasNorth := north >= 0), including parity tests
//     (rank%2 == phase) for odd/even-ordered exchanges;
//   - closures (the sendBorders/recvGhosts idiom) and same-package helper
//     functions that reach the transport are inlined at each call site with
//     their arguments' symbolic values;
//   - `if err != nil { return err }` guards are pruned as abort paths, and
//     any statement subtree that cannot reach a transport operation is
//     skipped entirely;
//   - wire groups resolve through msgproto's codec index: a send's payload
//     through the encode call that produced it (encodeGroup), a receive's
//     buffer through the decode call that later consumes it (recvGroup);
//   - loop bounds affine in (rank, P) unroll exactly at instantiation;
//     loops and switch selectors depending on values the extractor cannot
//     fold become *shared parameters* (protomc.Param) under the
//     SPMD-uniformity assumption — every rank of a lockstep round receives
//     the same iteration count and variant selector from its caller, so
//     modeling them as rank-independent choices is what keeps the checker
//     from fabricating schedules where ranks disagree on the round count.
//     Data-dependent `if` conditions, by contrast, stay per-rank
//     nondeterministic (protomc.GUnknown): nothing forces two ranks to
//     take a data branch the same way.
//
// Anything outside this fragment — unstructured control flow (goto, break
// or continue inside a communicating loop), non-affine peers, transport
// calls through constructs the evaluator cannot follow — fails extraction
// with an UnextractableError naming the construct, which netpartverify
// reports as a diagnostic instead of guessing at a model. A protocol whose
// traffic is computed at runtime (the Migrator's set-difference spans, the
// FT recovery barrier) opts out of extraction with
// `//netpart:lockstep model=<name>`: netpartverify substitutes its builtin
// model, which is built by the very runtime functions that compute the
// real traffic.
//
// A protocol that relies on the transport queueing its sends (the paper's
// halo exchange: both borders out, then both ghosts in) says so with
// `//netpart:lockstep sem=buffered`. The declaration narrows what is
// claimed, never what is checked for the rest: netpartverify proves such a
// function under buffered semantics only and reports the rendezvous case as
// skipped, not as passed.

// LockstepProto is one //netpart:lockstep function's extracted protocol.
type LockstepProto struct {
	// Proto is the symbolic program; nil when Model names a builtin.
	Proto *protomc.Proto
	// Fn labels the source function ("(*repart.Engine).Round").
	Fn string
	// Pos anchors the annotation.
	Pos token.Position
	// Model, when non-empty, names the builtin model the function's
	// directive requested instead of extraction.
	Model string
	// Buffered is set by the directive's sem=buffered argument: the
	// function declares that it relies on sends being queued, so it is
	// only checked under buffered semantics.
	Buffered bool
}

// UnextractableError reports why a lockstep function has no extractable
// protocol.
type UnextractableError struct {
	Pos    token.Position
	Reason string
}

func (e *UnextractableError) Error() string {
	return fmt.Sprintf("%s: unextractable protocol: %s", e.Pos, e.Reason)
}

// ExtractProtos extracts a protocol from every //netpart:lockstep function
// of the loaded packages. Functions whose directive carries model=<name>
// are returned with Model set and no Proto; functions the extractor cannot
// handle surface as "protoextract" diagnostics. A directive with an unknown
// sem= value is an error: the source declares a contract the checker does
// not know, so nothing can be claimed about the tree.
func ExtractProtos(pkgs []*Package, ip *Interproc) ([]*LockstepProto, []Diagnostic, error) {
	var protos []*LockstepProto
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, fd := range enclosingFuncDecls(pkg.Files) {
			if !funcHasDirective(fd, "netpart:lockstep") {
				continue
			}
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			lp := &LockstepProto{Fn: funcLabel(fn), Pos: pkg.Fset.Position(fd.Pos())}
			switch sem := lockstepArg(fd, "sem"); sem {
			case "":
			case "buffered":
				lp.Buffered = true
			default:
				return nil, nil, fmt.Errorf("%s: //netpart:lockstep on %s: unknown sem=%q (the only declarable semantics is buffered)",
					lp.Pos, lp.Fn, sem)
			}
			if model := lockstepArg(fd, "model"); model != "" {
				lp.Model = model
				protos = append(protos, lp)
				continue
			}
			proto, err := ExtractProto(pkg, ip, fd)
			if err != nil {
				diags = append(diags, Diagnostic{
					Analyzer: "protoextract",
					Pos:      pkg.Fset.Position(fd.Pos()),
					Message:  fmt.Sprintf("%s: %v", fd.Name.Name, err),
				})
				continue
			}
			lp.Proto = proto
			protos = append(protos, lp)
		}
	}
	return protos, diags, nil
}

// lockstepArg returns the value of the key=<value> argument of a lockstep
// directive (model=, sem=), or "" when absent.
func lockstepArg(fd *ast.FuncDecl, key string) string {
	for _, f := range strings.Fields(directiveRest(fd.Doc, "netpart:lockstep")) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return v
		}
	}
	return ""
}

// ExtractProto compiles one lockstep function into a symbolic protocol.
// The error is an *UnextractableError for protocol shapes outside the
// extractable fragment; it never panics on malformed input.
func ExtractProto(pkg *Package, ip *Interproc, fd *ast.FuncDecl) (*protomc.Proto, error) {
	if fd.Body == nil {
		return nil, &UnextractableError{Pos: pkg.Fset.Position(fd.Pos()), Reason: "function has no body"}
	}
	var wi *wireIndex
	if ip != nil {
		wi = ip.wireIndexOf()
	} else {
		wi = &wireIndex{fns: map[*types.Func]*wireFn{}, groups: map[string][]*wireFn{}}
	}
	ex := &extractor{pkg: pkg, info: pkg.Info, fset: pkg.Fset, ip: ip, wi: wi}
	env := newSymEnv(fd.Body)
	ops, err := ex.stmts(fd.Body.List, env)
	if err != nil {
		return nil, err
	}
	name := fd.Name.Name
	if pkg.Types != nil {
		name = pkg.Types.Name() + "." + name
	}
	proto := &protomc.Proto{Name: name, Ops: ops, Params: ex.params, Unrolled: ex.unrolled}
	if !hasCommOp(proto.Ops) {
		return nil, &UnextractableError{Pos: pkg.Fset.Position(fd.Pos()), Reason: "no transport sends or receives reachable from the body"}
	}
	return proto, nil
}

// hasCommOp reports whether any send/recv survives in the program.
func hasCommOp(ops []protomc.Op) bool {
	for i := range ops {
		switch ops[i].Kind {
		case protomc.OpSend, protomc.OpRecv, protomc.OpRecvAny:
			return true
		case protomc.OpIf:
			if hasCommOp(ops[i].Then) || hasCommOp(ops[i].Else) {
				return true
			}
		case protomc.OpLoop:
			if hasCommOp(ops[i].Body) {
				return true
			}
		}
	}
	return false
}

// closureVal is a function literal bound to a variable, with the
// environment it closed over.
type closureVal struct {
	lit *ast.FuncLit
	env *symEnv
}

// symEnv is the symbolic state of one extraction scope.
type symEnv struct {
	ints   map[types.Object]protomc.RankExpr
	bools  map[types.Object]protomc.Guard
	funcs  map[types.Object]*closureVal
	groups map[types.Object]string
	// body is the enclosing function or closure body, the scope recvGroup
	// scans.
	body *ast.BlockStmt
}

func newSymEnv(body *ast.BlockStmt) *symEnv {
	return &symEnv{
		ints:   map[types.Object]protomc.RankExpr{},
		bools:  map[types.Object]protomc.Guard{},
		funcs:  map[types.Object]*closureVal{},
		groups: map[types.Object]string{},
		body:   body,
	}
}

// child copies the scope: bindings added inside a branch or loop body do
// not leak out, and outer bindings stay visible.
func (env *symEnv) child() *symEnv {
	out := newSymEnv(env.body)
	for k, v := range env.ints {
		out.ints[k] = v
	}
	for k, v := range env.bools {
		out.bools[k] = v
	}
	for k, v := range env.funcs {
		out.funcs[k] = v
	}
	for k, v := range env.groups {
		out.groups[k] = v
	}
	return out
}

// extractor carries the per-function extraction state.
type extractor struct {
	pkg  *Package
	info *types.Info
	fset *token.FileSet
	ip   *Interproc
	wi   *wireIndex

	params   []protomc.Param
	unrolled []string
	nvar     int
	depth    int
}

// maxInlineDepth bounds closure/helper inlining so mutual recursion cannot
// hang extraction.
const maxInlineDepth = 40

// boundedTrips is how many iterations a loop with an unfoldable bound
// contributes as a shared parameter (0, 1, or 2 — enough to reach every
// mismatched-round deadlock while keeping the assignment product small).
const boundedTrips = 3

func (ex *extractor) errf(pos token.Pos, format string, args ...any) error {
	return &UnextractableError{Pos: ex.fset.Position(pos), Reason: fmt.Sprintf(format, args...)}
}

func (ex *extractor) src(pos token.Pos) string {
	return shortPos(ex.fset.Position(pos))
}

func (ex *extractor) freshVar(prefix string) string {
	ex.nvar++
	return fmt.Sprintf("%s%d", prefix, ex.nvar)
}

// stmts extracts a statement list. A guard-and-return `if` (the hub shape
// of Engine.Round: `if rank != 0 { client; return }` followed by the root
// path) turns the rest of the list into its else branch.
func (ex *extractor) stmts(list []ast.Stmt, env *symEnv) ([]protomc.Op, error) {
	ex.depth++
	defer func() { ex.depth-- }()
	if ex.depth > maxInlineDepth {
		return nil, ex.errf(token.NoPos, "extraction nests deeper than %d (recursive inlining?)", maxInlineDepth)
	}
	var ops []protomc.Op
	for i, s := range list {
		if ifs, ok := s.(*ast.IfStmt); ok && ifs.Else == nil && endsInReturn(ifs.Body) &&
			!ex.isErrGuard(ifs) && ex.hasComm(ifs, env) {
			if ifs.Init != nil {
				more, _, err := ex.stmt(ifs.Init, env)
				if err != nil {
					return nil, err
				}
				ops = append(ops, more...)
			}
			cond := ex.evalBool(ifs.Cond, env)
			thenOps, err := ex.stmts(ifs.Body.List, env.child())
			if err != nil {
				return nil, err
			}
			elseOps, err := ex.stmts(list[i+1:], env.child())
			if err != nil {
				return nil, err
			}
			return append(ops, protomc.Op{
				Kind: protomc.OpIf, Cond: cond, Then: thenOps, Else: elseOps,
				Src: ex.src(ifs.Pos()),
			}), nil
		}
		more, stop, err := ex.stmt(s, env)
		if err != nil {
			return nil, err
		}
		ops = append(ops, more...)
		if stop {
			break
		}
	}
	return ops, nil
}

// stmt extracts one statement. stop=true ends the enclosing list (a
// return: everything after it is unreachable).
func (ex *extractor) stmt(s ast.Stmt, env *symEnv) (ops []protomc.Op, stop bool, err error) {
	switch x := s.(type) {
	case *ast.AssignStmt:
		ops, err = ex.assign(x, env)
		return ops, false, err
	case *ast.DeclStmt:
		// var declarations introduce no comm; their initial values are
		// rarely protocol-relevant, so they are left unbound.
		return nil, false, nil
	case *ast.ExprStmt:
		if !ex.hasComm(x, env) {
			return nil, false, nil
		}
		call, ok := ast.Unparen(x.X).(*ast.CallExpr)
		if !ok {
			return nil, false, ex.errf(x.Pos(), "transport operation inside a non-call expression statement")
		}
		ops, err = ex.call(call, env)
		return ops, false, err
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			if ex.hasComm(r, env) {
				return nil, false, ex.errf(x.Pos(), "transport operation inside a return expression")
			}
		}
		return nil, true, nil
	case *ast.IfStmt:
		if !ex.hasComm(x, env) {
			return nil, false, nil
		}
		ops, err = ex.ifStmt(x, env)
		return ops, false, err
	case *ast.ForStmt:
		if !ex.hasComm(x, env) {
			return nil, false, nil
		}
		ops, err = ex.forStmt(x, env)
		return ops, false, err
	case *ast.SwitchStmt:
		if !ex.hasComm(x, env) {
			return nil, false, nil
		}
		ops, err = ex.switchStmt(x, env)
		return ops, false, err
	case *ast.BlockStmt:
		ops, err = ex.stmts(x.List, env.child())
		return ops, false, err
	case *ast.IncDecStmt:
		// A mutation the evaluator does not model invalidates the binding.
		if obj := identObj(ex.info, x.X); obj != nil {
			delete(env.ints, obj)
		}
		return nil, false, nil
	case *ast.BranchStmt:
		// Reached only inside a communicating region (comm-free subtrees are
		// pruned before recursion), where break/continue/goto reshapes the
		// protocol in ways the structured evaluator cannot follow.
		return nil, false, ex.errf(x.Pos(), "%s inside a communicating region; protocol loops must be structured", x.Tok)
	case *ast.LabeledStmt:
		if !ex.hasComm(x, env) {
			return nil, false, nil
		}
		return nil, false, ex.errf(x.Pos(), "labeled statement inside a communicating region")
	case *ast.RangeStmt:
		if !ex.hasComm(x, env) {
			return nil, false, nil
		}
		return nil, false, ex.errf(x.Pos(), "range loop carries transport operations; its trip count is not a function of rank and P")
	case *ast.GoStmt:
		if !ex.hasComm(x, env) {
			return nil, false, nil
		}
		return nil, false, ex.errf(x.Pos(), "transport operation inside a go statement escapes the rank's program order")
	case *ast.DeferStmt:
		if !ex.hasComm(x, env) {
			return nil, false, nil
		}
		return nil, false, ex.errf(x.Pos(), "transport operation inside a defer escapes the rank's program order")
	case *ast.SelectStmt, *ast.TypeSwitchStmt:
		if !ex.hasComm(x, env) {
			return nil, false, nil
		}
		return nil, false, ex.errf(x.Pos(), "transport operation inside a select/type-switch")
	default:
		if ex.hasComm(s, env) {
			return nil, false, ex.errf(s.Pos(), "transport operation inside an unsupported statement")
		}
		return nil, false, nil
	}
}

// assign handles value tracking and transport calls in assignment form
// (`buf, err := tr.Recv(src)`, `if err := tr.Send(...)`'s init).
func (ex *extractor) assign(x *ast.AssignStmt, env *symEnv) ([]protomc.Op, error) {
	// Transport call or inlinable call on the right-hand side.
	if len(x.Rhs) == 1 {
		if call, ok := ast.Unparen(x.Rhs[0]).(*ast.CallExpr); ok && ex.hasComm(x.Rhs[0], env) {
			return ex.call(call, env)
		}
	}
	if ex.hasComm(x, env) {
		return nil, ex.errf(x.Pos(), "transport operation inside a compound assignment")
	}
	if len(x.Lhs) != len(x.Rhs) {
		return nil, nil
	}
	for i, lhs := range x.Lhs {
		obj := identObj(ex.info, lhs)
		if obj == nil {
			continue
		}
		rhs := x.Rhs[i]
		if lit, ok := ast.Unparen(rhs).(*ast.FuncLit); ok {
			env.funcs[obj] = &closureVal{lit: lit, env: env}
			continue
		}
		bound := false
		if e, ok := ex.evalInt(rhs, env); ok {
			env.ints[obj] = e
			bound = true
		} else {
			delete(env.ints, obj)
		}
		if g, ok := ex.evalBoolKnown(rhs, env); ok {
			env.bools[obj] = g
			bound = true
		} else {
			delete(env.bools, obj)
		}
		if g := ex.encodeGroup(rhs); g != "" {
			env.groups[obj] = g
			bound = true
		} else if !bound {
			delete(env.groups, obj)
		}
	}
	return nil, nil
}

// call extracts one call expression: a transport operation, an inlined
// closure, or an inlined same-package helper.
func (ex *extractor) call(call *ast.CallExpr, env *symEnv) ([]protomc.Op, error) {
	if kind, ok := transportCallKind(call); ok {
		return ex.transportOp(kind, call, env)
	}
	if obj := identObj(ex.info, call.Fun); obj != nil {
		if cv, ok := env.funcs[obj]; ok {
			return ex.inlineClosure(cv, call, env)
		}
	}
	if fn := calleeFunc(ex.info, call); ex.calleeComm(fn) {
		return ex.inlineFunc(fn, call, env)
	}
	if ex.hasComm(call, env) {
		// Comm hides in an argument subexpression (f(tr.Recv(0))).
		return nil, ex.errf(call.Pos(), "transport operation nested inside a call argument")
	}
	return nil, nil
}

// transportCallKind classifies X.Send(dst, payload) / X.Recv(src) /
// X.Recv(src, into) / X.RecvAny(d) selector calls by name and arity (the
// second Recv form receives into a destination the caller names, as the
// stencil driver's link does). It is the module's one
// recogniser of a transport operation: the extractor and the summaries'
// "reaches the transport" fact (summary.go) both read it.
func transportCallKind(call *ast.CallExpr) (protomc.OpKind, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return 0, false
	}
	switch {
	case sel.Sel.Name == "Send" && len(call.Args) == 2:
		return protomc.OpSend, true
	case sel.Sel.Name == "Recv" && (len(call.Args) == 1 || len(call.Args) == 2):
		return protomc.OpRecv, true
	case sel.Sel.Name == "RecvAny" && len(call.Args) == 1:
		return protomc.OpRecvAny, true
	}
	return 0, false
}

// transportOp emits the protocol op of one transport call.
func (ex *extractor) transportOp(kind protomc.OpKind, call *ast.CallExpr, env *symEnv) ([]protomc.Op, error) {
	op := protomc.Op{Kind: kind, Src: ex.src(call.Pos()), Group: "?"}
	switch kind {
	case protomc.OpSend:
		peer, ok := ex.evalInt(call.Args[0], env)
		if !ok {
			return nil, ex.errf(call.Pos(), "send destination %s is not affine in rank and P", exprText(call.Args[0]))
		}
		op.Peer = peer
		if g := ex.encodeGroup(call.Args[1]); g != "" {
			op.Group = g
		} else if obj := identObj(ex.info, rootExpr(call.Args[1])); obj != nil {
			if g, ok := env.groups[obj]; ok {
				op.Group = g
			}
		}
	case protomc.OpRecv:
		peer, ok := ex.evalInt(call.Args[0], env)
		if !ok {
			return nil, ex.errf(call.Pos(), "receive source %s is not affine in rank and P", exprText(call.Args[0]))
		}
		op.Peer = peer
		op.Group = ex.recvGroup(env.body, call)
	case protomc.OpRecvAny:
		op.Group = "?"
	}
	return []protomc.Op{op}, nil
}

// rootExpr strips slicing/indexing down to the addressed variable.
func rootExpr(e ast.Expr) ast.Expr {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return e
		}
	}
}

// encodeGroup returns the wire group when the expression contains an
// encode-side codec call (EncodeRows, appendHaloFrame).
func (ex *extractor) encodeGroup(e ast.Expr) string {
	group := ""
	ast.Inspect(e, func(n ast.Node) bool {
		if group != "" {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := calleeFunc(ex.info, call); fn != nil {
				if wf := ex.wi.fns[fn]; wf != nil && wf.Side == "encode" {
					group = wf.Group
					return false
				}
			}
		}
		return true
	})
	return group
}

// recvGroup resolves the wire group a received buffer is decoded as: the
// first later codec call in body taking the receive's result variable.
func (ex *extractor) recvGroup(body *ast.BlockStmt, recv *ast.CallExpr) string {
	var obj types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || obj != nil {
			return obj == nil
		}
		for i, rhs := range as.Rhs {
			if ast.Unparen(rhs) == recv && i < len(as.Lhs) {
				obj = identObj(ex.info, as.Lhs[i])
			}
		}
		return true
	})
	if obj == nil {
		return "?"
	}
	group := "?"
	ast.Inspect(body, func(n ast.Node) bool {
		if group != "?" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= recv.Pos() {
			return true
		}
		wf := ex.wi.fns[calleeFunc(ex.info, call)]
		if wf == nil {
			return true
		}
		for _, a := range call.Args {
			if identObj(ex.info, rootExpr(a)) == obj {
				group = wf.Group
				return false
			}
		}
		return true
	})
	return group
}

// inlineClosure splices a closure body in at its call site, binding the
// parameters to the arguments' symbolic values in the closure's captured
// environment.
func (ex *extractor) inlineClosure(cv *closureVal, call *ast.CallExpr, env *symEnv) ([]protomc.Op, error) {
	inner := cv.env.child()
	inner.body = cv.lit.Body
	if err := ex.bindParams(cv.lit.Type, call, env, inner); err != nil {
		return nil, err
	}
	return ex.stmts(cv.lit.Body.List, inner)
}

// inlineFunc splices a same-package helper in at its call site.
func (ex *extractor) inlineFunc(fn *types.Func, call *ast.CallExpr, env *symEnv) ([]protomc.Op, error) {
	var node *FuncNode
	if ex.ip != nil {
		node = ex.ip.Node(fn)
	}
	if node == nil || node.Decl == nil || node.Decl.Body == nil {
		return nil, ex.errf(call.Pos(), "call to %s reaches the transport but its body is not loaded", fn.Name())
	}
	if node.Pkg == nil || node.Pkg != ex.pkg {
		return nil, ex.errf(call.Pos(), "call to %s reaches the transport across a package boundary; annotate the callee //netpart:lockstep instead", fn.Name())
	}
	inner := newSymEnv(node.Decl.Body)
	if err := ex.bindParams(node.Decl.Type, call, env, inner); err != nil {
		return nil, err
	}
	return ex.stmts(node.Decl.Body.List, inner)
}

// bindParams binds a callee's parameters to the call arguments' symbolic
// values. Unresolvable arguments are left unbound (they degrade to
// unknowns inside the callee), but an argument list that does not align
// positionally (variadic spreads) is rejected.
func (ex *extractor) bindParams(ft *ast.FuncType, call *ast.CallExpr, caller, callee *symEnv) error {
	if ft.Params == nil {
		return nil
	}
	if call.Ellipsis.IsValid() {
		return ex.errf(call.Pos(), "variadic call into a communicating function")
	}
	i := 0
	for _, field := range ft.Params.List {
		names := field.Names
		if len(names) == 0 {
			i++
			continue
		}
		for _, name := range names {
			if i >= len(call.Args) {
				return nil
			}
			obj := ex.info.Defs[name]
			arg := call.Args[i]
			i++
			if obj == nil {
				continue
			}
			if e, ok := ex.evalInt(arg, caller); ok {
				callee.ints[obj] = e
			}
			if g, ok := ex.evalBoolKnown(arg, caller); ok {
				callee.bools[obj] = g
			}
			if id := identObj(ex.info, rootExpr(arg)); id != nil {
				if cv, ok := caller.funcs[id]; ok {
					callee.funcs[obj] = cv
				}
				if g, ok := caller.groups[id]; ok {
					callee.groups[obj] = g
				}
			}
		}
	}
	return nil
}

// isErrGuard recognizes `if err != nil { return ... }` (and the inverted
// `if err == nil` happy-path form): the abort paths of the happy-path
// protocol, pruned from the model.
func (ex *extractor) isErrGuard(ifs *ast.IfStmt) bool {
	bin, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.NEQ && bin.Op != token.EQL) {
		return false
	}
	operand := bin.X
	if isNilIdent(ex.info, bin.X) {
		operand = bin.Y
	} else if !isNilIdent(ex.info, bin.Y) {
		return false
	}
	t := ex.info.TypeOf(operand)
	return t != nil && isErrorType(t)
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.ObjectOf(id).(*types.Nil)
	return isNil
}

// ifStmt extracts a conditional. Error guards prune their abort branch;
// everything else becomes an OpIf whose guard is the folded condition, or
// a per-rank nondeterministic choice when the condition is data-dependent.
func (ex *extractor) ifStmt(ifs *ast.IfStmt, env *symEnv) ([]protomc.Op, error) {
	var ops []protomc.Op
	if ifs.Init != nil {
		more, _, err := ex.stmt(ifs.Init, env)
		if err != nil {
			return nil, err
		}
		ops = append(ops, more...)
	}
	if ex.isErrGuard(ifs) {
		bin := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
		abort, keep := ast.Stmt(ifs.Body), ifs.Else
		if bin.Op == token.EQL { // if err == nil { happy } else { abort }
			abort, keep = ifs.Else, ifs.Body
		}
		if abort != nil && ex.hasComm(abort, env) {
			return nil, ex.errf(abort.Pos(), "transport operation on an error-handling path; abort paths must not communicate")
		}
		if keep != nil {
			more, _, err := ex.stmt(keep, env)
			if err != nil {
				return nil, err
			}
			ops = append(ops, more...)
		}
		return ops, nil
	}
	cond := ex.evalBool(ifs.Cond, env)
	thenOps, err := ex.stmts(ifs.Body.List, env.child())
	if err != nil {
		return nil, err
	}
	var elseOps []protomc.Op
	if ifs.Else != nil {
		elseOps, _, err = ex.stmt(ifs.Else, env.child())
		if err != nil {
			return nil, err
		}
	}
	if len(thenOps) == 0 && len(elseOps) == 0 {
		return ops, nil
	}
	return append(ops, protomc.Op{
		Kind: protomc.OpIf, Cond: cond, Then: thenOps, Else: elseOps,
		Src: ex.src(ifs.Pos()),
	}), nil
}

// forStmt extracts `for i := lo; i < hi; i++` loops. Affine bounds unroll
// exactly at instantiation; an unfoldable bound becomes a shared trip
// count in [0, boundedTrips) under the SPMD-uniformity assumption.
func (ex *extractor) forStmt(fs *ast.ForStmt, env *symEnv) ([]protomc.Op, error) {
	if fs.Init == nil || fs.Cond == nil || fs.Post == nil {
		return nil, ex.errf(fs.Pos(), "communicating loop without init/cond/post; bounds must be explicit")
	}
	init, ok := fs.Init.(*ast.AssignStmt)
	if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
		return nil, ex.errf(fs.Pos(), "communicating loop must define a single induction variable")
	}
	loopObj := identObj(ex.info, init.Lhs[0])
	if loopObj == nil {
		return nil, ex.errf(fs.Pos(), "communicating loop induction variable is not an identifier")
	}
	inc, ok := fs.Post.(*ast.IncDecStmt)
	if !ok || inc.Tok != token.INC || identObj(ex.info, inc.X) != loopObj {
		return nil, ex.errf(fs.Post.Pos(), "communicating loop must step its induction variable by one")
	}
	cond, ok := ast.Unparen(fs.Cond).(*ast.BinaryExpr)
	if !ok || (cond.Op != token.LSS && cond.Op != token.LEQ) || identObj(ex.info, cond.X) != loopObj {
		return nil, ex.errf(fs.Cond.Pos(), "communicating loop condition must be `i < bound` or `i <= bound`")
	}

	from, fromOK := ex.evalInt(init.Rhs[0], env)
	to, toOK := ex.evalInt(cond.Y, env)
	if toOK && cond.Op == token.LEQ {
		to = to.Add(protomc.Konst(1))
	}
	name := ex.freshVar("i")
	inner := env.child()
	inner.ints[loopObj] = protomc.Var(name, 0)
	body, err := ex.stmts(fs.Body.List, inner)
	if err != nil {
		return nil, err
	}
	op := protomc.Op{Kind: protomc.OpLoop, LoopVar: name, Body: body, Src: ex.src(fs.Pos())}
	if fromOK && toOK {
		op.From, op.To = from, to
		return []protomc.Op{op}, nil
	}
	// Unknown trip count: a shared parameter — the caller hands every rank
	// the same bound (iters), so ranks must not diverge on it.
	param := ex.freshVar("n")
	ex.params = append(ex.params, protomc.Param{Name: param, Values: boundedTrips, Src: ex.src(fs.Pos())})
	ex.unrolled = append(ex.unrolled, ex.src(fs.Pos()))
	op.From, op.To = protomc.Konst(0), protomc.Var(param, 0)
	return []protomc.Op{op}, nil
}

// switchStmt extracts a value switch. A foldable tag selects its arm
// statically; an unfoldable tag becomes a shared selector parameter (the
// variant every rank was launched with), one value per arm plus a
// fall-past value when there is no default.
func (ex *extractor) switchStmt(sw *ast.SwitchStmt, env *symEnv) ([]protomc.Op, error) {
	var ops []protomc.Op
	if sw.Init != nil {
		more, _, err := ex.stmt(sw.Init, env)
		if err != nil {
			return nil, err
		}
		ops = append(ops, more...)
	}
	if sw.Tag == nil {
		return nil, ex.errf(sw.Pos(), "communicating switch without a tag; rewrite as if/else chains")
	}
	type arm struct {
		clause *ast.CaseClause
		vals   []int64 // constant case values; nil for default
	}
	var arms []arm
	hasDefault := false
	for _, cs := range sw.Body.List {
		clause, ok := cs.(*ast.CaseClause)
		if !ok {
			return nil, ex.errf(cs.Pos(), "malformed switch clause")
		}
		if containsFallthrough(clause.Body) {
			return nil, ex.errf(clause.Pos(), "fallthrough in a communicating switch")
		}
		a := arm{clause: clause}
		for _, e := range clause.List {
			v, ok := intConst(ex.info, e)
			if !ok {
				return nil, ex.errf(e.Pos(), "non-constant case value %s in a communicating switch", exprText(e))
			}
			a.vals = append(a.vals, v)
		}
		if clause.List == nil {
			hasDefault = true
		}
		arms = append(arms, a)
	}

	if tag, ok := ex.evalInt(sw.Tag, env); ok && isConstExpr(tag) {
		// Fully resolved at extraction time only for constants; anything
		// rank-dependent resolves per rank below via guards.
		val := int64(tag.C)
		for _, a := range arms {
			for _, v := range a.vals {
				if v == val {
					body, err := ex.stmts(a.clause.Body, env.child())
					return append(ops, body...), err
				}
			}
		}
		for _, a := range arms {
			if a.vals == nil {
				body, err := ex.stmts(a.clause.Body, env.child())
				return append(ops, body...), err
			}
		}
		return ops, nil
	}

	// Rank-dependent affine tags get exact guards; data-dependent tags get
	// a shared selector parameter.
	var sel protomc.RankExpr
	if tag, ok := ex.evalInt(sw.Tag, env); ok {
		sel = tag
	} else {
		values := len(arms)
		if !hasDefault {
			values++ // no case matched: fall past the switch
		}
		param := ex.freshVar("s")
		ex.params = append(ex.params, protomc.Param{Name: param, Values: values, Src: ex.src(sw.Pos())})
		sel = protomc.Var(param, 0)
		// Remap arm values onto the selector's range.
		for i := range arms {
			if arms[i].vals != nil {
				arms[i].vals = []int64{int64(i)}
			}
		}
	}

	// Build the if/else chain back to front; default is the final else.
	var chain []protomc.Op
	for i := len(arms) - 1; i >= 0; i-- {
		a := arms[i]
		body, err := ex.stmts(a.clause.Body, env.child())
		if err != nil {
			return nil, err
		}
		if a.vals == nil {
			chain = body
			continue
		}
		var g protomc.Guard
		for j, v := range a.vals {
			cmp := protomc.Cmp(sel, protomc.EQ, protomc.Konst(int(v)))
			if j == 0 {
				g = cmp
			} else {
				g = protomc.Guard{Kind: protomc.GOr, Subs: []protomc.Guard{g, cmp}}
			}
		}
		chain = []protomc.Op{{
			Kind: protomc.OpIf, Cond: g, Then: body, Else: chain,
			Src: ex.src(a.clause.Pos()),
		}}
	}
	return append(ops, chain...), nil
}

// isConstExpr reports whether the expression is a pure constant.
func isConstExpr(e protomc.RankExpr) bool {
	return e.Rank == 0 && e.P == 0 && len(e.Vars) == 0
}

func containsFallthrough(body []ast.Stmt) bool {
	for _, s := range body {
		if br, ok := s.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
			return true
		}
	}
	return false
}

// endsInReturn reports whether the block's last statement is a return.
func endsInReturn(body *ast.BlockStmt) bool {
	for i := len(body.List) - 1; i >= 0; i-- {
		switch body.List[i].(type) {
		case *ast.EmptyStmt:
			continue
		case *ast.ReturnStmt:
			return true
		default:
			return false
		}
	}
	return false
}

// --- symbolic evaluation ---

// intConst folds an expression the type checker evaluated to an integer
// constant.
func intConst(info *types.Info, e ast.Expr) (int64, bool) {
	if tv, ok := info.Types[ast.Unparen(e)]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
		if v, exact := constant.Int64Val(tv.Value); exact {
			return v, true
		}
	}
	return 0, false
}

// evalInt folds an expression into an affine RankExpr over (rank, P, loop
// variables, shared parameters).
func (ex *extractor) evalInt(e ast.Expr, env *symEnv) (protomc.RankExpr, bool) {
	e = ast.Unparen(e)
	if v, ok := intConst(ex.info, e); ok {
		return protomc.Konst(int(v)), true
	}
	switch x := e.(type) {
	case *ast.Ident:
		obj := identObj(ex.info, x)
		if obj == nil {
			return protomc.RankExpr{}, false
		}
		v, ok := env.ints[obj]
		return v, ok
	case *ast.BinaryExpr:
		l, lok := ex.evalInt(x.X, env)
		r, rok := ex.evalInt(x.Y, env)
		if !lok || !rok {
			return protomc.RankExpr{}, false
		}
		switch x.Op {
		case token.ADD:
			return l.Add(r), true
		case token.SUB:
			return l.Add(r.Neg()), true
		case token.MUL:
			if isConstExpr(l) {
				return scaleExpr(r, l.C), true
			}
			if isConstExpr(r) {
				return scaleExpr(l, r.C), true
			}
		}
		return protomc.RankExpr{}, false
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && len(x.Args) == 0 {
			switch sel.Sel.Name {
			case "Rank":
				return protomc.Self(0), true
			case "Size":
				return protomc.World(0), true
			}
		}
	}
	return protomc.RankExpr{}, false
}

func scaleExpr(e protomc.RankExpr, k int) protomc.RankExpr {
	out := protomc.RankExpr{Rank: e.Rank * k, P: e.P * k, C: e.C * k}
	for v, c := range e.Vars {
		if c*k != 0 {
			if out.Vars == nil {
				out.Vars = map[string]int{}
			}
			out.Vars[v] = c * k
		}
	}
	return out
}

// evalBool folds a boolean expression into a Guard; unfoldable conditions
// become the per-rank nondeterministic guard.
func (ex *extractor) evalBool(e ast.Expr, env *symEnv) protomc.Guard {
	if g, ok := ex.evalBoolKnown(e, env); ok {
		return g
	}
	return protomc.Unknown()
}

func (ex *extractor) evalBoolKnown(e ast.Expr, env *symEnv) (protomc.Guard, bool) {
	e = ast.Unparen(e)
	if tv, ok := ex.info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.Bool {
		if constant.BoolVal(tv.Value) {
			return protomc.Guard{Kind: protomc.GTrue}, true
		}
		return protomc.Guard{Kind: protomc.GNot, Subs: []protomc.Guard{{Kind: protomc.GTrue}}}, true
	}
	switch x := e.(type) {
	case *ast.Ident:
		obj := identObj(ex.info, x)
		if obj == nil {
			return protomc.Guard{}, false
		}
		g, ok := env.bools[obj]
		return g, ok
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			g, ok := ex.evalBoolKnown(x.X, env)
			if !ok {
				return protomc.Guard{}, false
			}
			return protomc.Guard{Kind: protomc.GNot, Subs: []protomc.Guard{g}}, true
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND, token.LOR:
			l, lok := ex.evalBoolKnown(x.X, env)
			r, rok := ex.evalBoolKnown(x.Y, env)
			if !lok || !rok {
				return protomc.Guard{}, false
			}
			kind := protomc.GAnd
			if x.Op == token.LOR {
				kind = protomc.GOr
			}
			return protomc.Guard{Kind: kind, Subs: []protomc.Guard{l, r}}, true
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			// Parity tests: x%m == k and x%m != k.
			if g, ok := ex.evalMod(x, env); ok {
				return g, true
			}
			l, lok := ex.evalInt(x.X, env)
			r, rok := ex.evalInt(x.Y, env)
			if !lok || !rok {
				return protomc.Guard{}, false
			}
			var op protomc.CmpOp
			switch x.Op {
			case token.EQL:
				op = protomc.EQ
			case token.NEQ:
				op = protomc.NE
			case token.LSS:
				op = protomc.LT
			case token.LEQ:
				op = protomc.LE
			case token.GTR:
				op = protomc.GT
			default:
				op = protomc.GE
			}
			return protomc.Cmp(l, op, r), true
		}
	}
	return protomc.Guard{}, false
}

// evalMod folds `x % m ==/!= k` parity guards.
func (ex *extractor) evalMod(cmp *ast.BinaryExpr, env *symEnv) (protomc.Guard, bool) {
	if cmp.Op != token.EQL && cmp.Op != token.NEQ {
		return protomc.Guard{}, false
	}
	modSide, other := cmp.X, cmp.Y
	bin, ok := ast.Unparen(modSide).(*ast.BinaryExpr)
	if !ok || bin.Op != token.REM {
		modSide, other = cmp.Y, cmp.X
		if bin, ok = ast.Unparen(modSide).(*ast.BinaryExpr); !ok || bin.Op != token.REM {
			return protomc.Guard{}, false
		}
	}
	m, ok := intConst(ex.info, bin.Y)
	if !ok || m <= 0 {
		return protomc.Guard{}, false
	}
	l, lok := ex.evalInt(bin.X, env)
	r, rok := ex.evalInt(other, env)
	if !lok || !rok {
		return protomc.Guard{}, false
	}
	g := protomc.Mod(l, int(m), r)
	if cmp.Op == token.NEQ {
		g = protomc.Guard{Kind: protomc.GNot, Subs: []protomc.Guard{g}}
	}
	return g, true
}

// --- reachability of transport operations ---

// hasComm reports whether executing the node can reach a transport
// operation: a direct Send/Recv/RecvAny call, a call to a closure whose
// body communicates, or a call into a module function that transitively
// does. Function-literal definitions do not count (communication happens
// at call time); their call sites do.
func (ex *extractor) hasComm(n ast.Node, env *symEnv) bool {
	found := false
	ast.Inspect(n, func(node ast.Node) bool {
		if found {
			return false
		}
		if _, ok := node.(*ast.FuncLit); ok {
			return false
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, ok := transportCallKind(call); ok {
			found = true
			return false
		}
		if obj := identObj(ex.info, call.Fun); obj != nil {
			if cv, ok := env.funcs[obj]; ok {
				if ex.hasComm(cv.lit.Body, cv.env) {
					found = true
					return false
				}
				return true
			}
		}
		if ex.calleeComm(calleeFunc(ex.info, call)) {
			found = true
			return false
		}
		return true
	})
	return found
}

// calleeComm reads the callee's "reaches the transport" summary fact.
// Functions without a summary — out-of-module callees, dynamic calls, and
// everything when no interprocedural state is wired — are assumed
// communication-free.
func (ex *extractor) calleeComm(fn *types.Func) bool {
	if ex.ip == nil || fn == nil {
		return false
	}
	sum := ex.ip.Summary(fn)
	return sum != nil && sum.comm
}
