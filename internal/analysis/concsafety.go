package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ConcSafety is the flow-sensitive concurrency analyzer. It runs the CFG +
// forward-dataflow engine (cfg.go, dataflow.go) over every function-like
// body and enforces four invariants the concurrency-heavy packages
// (experiments, mmps, faults, stencil) rely on:
//
//   - lock pairing: every sync.Mutex/RWMutex Lock acquired inside a
//     function is released on every path to the exit, counting deferred
//     unlocks; double-Lock and Unlock-of-unheld are reported where the
//     lattice proves them on all paths.
//
//   - no blocking under a lock: a channel send, channel receive, or
//     WaitGroup.Wait while a mutex may be held is reported. Communication
//     arms of a select with a default clause are exempt (they cannot
//     block), as is sync.Cond.Wait (it releases its own mutex).
//
//   - WaitGroup balance: a goroutine that calls wg.Done must be preceded
//     by a wg.Add on some path, and the Add must not live inside the
//     launched closure (that races with Wait).
//
//   - goroutine lifetime: a `go func(){...}()` closure must have a
//     join edge back to its launcher — a Done on a WaitGroup the function
//     Waits on, or a send/close on a channel the function receives from.
//     Launches of named functions and methods (`go c.sender(d)`) are
//     exempt: their lifecycle belongs to the named callee's owner. So is a
//     closure that signals through a captured channel or WaitGroup (one
//     whose root is declared outside the launching body): the object's
//     owner joins it in another method, beyond an intraprocedural view.
//     simnet's Run is the plain case: each task goroutine it launches
//     calls Done on the simulation's WaitGroup, which Run Waits on before
//     returning.
//
// Mutexes and WaitGroups are keyed by the source text of their receiver
// expression (types.ExprString), so `c.mu` in two statements is one lock.
// A key whose root variable is declared inside the analyzed body starts
// unlocked; receivers, parameters, and captured variables start in the
// unknown state, so helpers that are documented to run under a caller's
// lock produce no noise.
var ConcSafety = &Analyzer{
	Name: "concsafety",
	Doc:  "CFG-based lock pairing, blocking-under-lock, WaitGroup balance, and goroutine lifetime checks",
	Run:  runConcSafety,
}

// Lock lattice bits ("may" powerset: union join). The two held bits keep
// provenance: a lock that may merely have been held by the caller at entry
// (lockHeldEntry) must not trip the leak-at-exit report, which is about
// locks this body acquired (lockAcquired) and failed to release on some
// path. Without the split, any early return before the first Lock would
// carry the unknown entry state to the exit join and report a leak.
const (
	lockFree      uint8 = 1 << iota // not held at this point
	lockHeldEntry                   // may be held since function entry (caller's lock)
	lockAcquired                    // may be held via a Lock in this body
)

// WaitGroup lattice bits.
const (
	wgNone uint8 = 1 << iota
	wgAdded
)

// concKind distinguishes what a flow key tracks.
type concKind uint8

const (
	kindMutex concKind = iota
	kindWaitGroup
)

// concKey is one tracked mutex or WaitGroup within a function body.
type concKey struct {
	kind  concKind
	local bool // root variable declared inside the analyzed body
	// firstLock is the position of the first Lock/RLock call on this key
	// inside the body (0 if the body never locks it): the anchor for
	// lock-may-be-held-at-exit reports.
	firstLock token.Pos
}

func runConcSafety(pass *Pass) error {
	for _, body := range funcBodies(pass.Files) {
		checkConcFunc(pass, body)
	}
	return nil
}

func checkConcFunc(pass *Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	keys := concKeys(info, body)
	checkGoStmts(pass, body)
	if len(keys) == 0 {
		return
	}

	g := BuildCFG(body)
	entry := FlowState[string]{}
	for k, ck := range keys {
		switch {
		case ck.kind == kindMutex && ck.local:
			entry[k] = lockFree
		case ck.kind == kindMutex:
			entry[k] = lockFree | lockHeldEntry
		case ck.local:
			entry[k] = wgNone
		default:
			entry[k] = wgNone | wgAdded
		}
	}
	transfer := func(b *Block, s FlowState[string]) FlowState[string] {
		for _, n := range b.Nodes {
			concTransferNode(info, keys, n, s, nil)
		}
		return s
	}
	ins, reached := Forward(g, entry, transfer)

	// Reporting pass: replay each reachable block once from its converged
	// in-state.
	for _, b := range g.Blocks {
		if !reached[b.Index] || ins[b.Index] == nil {
			continue
		}
		s := ins[b.Index].Clone()
		for _, n := range b.Nodes {
			reportBlockingOps(pass, g, keys, n, s)
			concTransferNode(info, keys, n, s, pass)
		}
	}

	// Exit check: apply deferred calls (in reverse registration order) to
	// the joined exit state, then any mutex this body locked that may
	// still be held leaks out of a path with no Unlock.
	exit := ins[g.Exit.Index]
	if exit == nil {
		return
	}
	s := exit.Clone()
	for i := len(g.Defers) - 1; i >= 0; i-- {
		// A deferred closure runs at return time, so its body's lock
		// effects count here — no FuncLit pruning.
		ast.Inspect(g.Defers[i], func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				applyConcCall(info, keys, call, s, nil)
			}
			return true
		})
	}
	for k, ck := range keys {
		if ck.kind == kindMutex && ck.firstLock != 0 && s[k]&lockAcquired != 0 {
			pass.Reportf(ck.firstLock, "%s acquired here may still be held when the function returns: a path to the exit is missing the Unlock (or a defer)", lockDisplay(k))
		}
	}
}

// concKeys discovers the mutexes and WaitGroups a body touches, with their
// locality. Closure bodies are pruned: each FuncLit is its own unit.
func concKeys(info *types.Info, body *ast.BlockStmt) map[string]*concKey {
	keys := map[string]*concKey{}
	inspectLeaf(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recv := info.TypeOf(sel.X)
		key := types.ExprString(sel.X)
		switch {
		case isSyncNamed(recv, "Mutex", "RWMutex"):
			switch sel.Sel.Name {
			case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
			default:
				return true
			}
			if sel.Sel.Name == "RLock" || sel.Sel.Name == "RUnlock" || sel.Sel.Name == "TryRLock" {
				key += "#r"
			}
			ck := keys[key]
			if ck == nil {
				ck = &concKey{kind: kindMutex, local: rootDeclaredIn(info, sel.X, body)}
				keys[key] = ck
			}
			if (sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock") && ck.firstLock == 0 {
				ck.firstLock = call.Pos()
			}
		case isSyncNamed(recv, "WaitGroup"):
			if keys[key] == nil {
				keys[key] = &concKey{kind: kindWaitGroup, local: rootDeclaredIn(info, sel.X, body)}
			}
		}
		return true
	})
	return keys
}

// concTransferNode applies one block node's lock/WaitGroup effects to s.
// With a non-nil pass it also reports must-state violations (double lock,
// unlock of unheld, Done-goroutine without Add). DeferStmt nodes have no
// in-place effect: their calls run at exit and are handled there.
func concTransferNode(info *types.Info, keys map[string]*concKey, n ast.Node, s FlowState[string], pass *Pass) {
	if _, ok := n.(*ast.DeferStmt); ok {
		return
	}
	if gs, ok := n.(*ast.GoStmt); ok {
		if pass != nil {
			reportUnbalancedDone(pass, info, keys, gs, s)
		}
		return
	}
	inspectLeaf(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			applyConcCall(info, keys, call, s, pass)
		}
		return true
	})
}

// applyConcCall updates s for one Lock/Unlock/RLock/RUnlock/Add call.
func applyConcCall(info *types.Info, keys map[string]*concKey, call *ast.CallExpr, s FlowState[string], pass *Pass) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	key := types.ExprString(sel.X)
	read := false
	switch sel.Sel.Name {
	case "RLock", "RUnlock":
		key += "#r"
		read = true
	}
	ck := keys[key]
	if ck == nil {
		return
	}
	switch {
	case ck.kind == kindMutex && (sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock"):
		// Double-RLock is legal (read locks are shared); double-Lock on
		// every path is a self-deadlock.
		if pass != nil && !read && s[key] != 0 && s[key]&lockFree == 0 {
			pass.Reportf(call.Pos(), "%s.Lock while the lock is already held on every path here: self-deadlock", types.ExprString(sel.X))
		}
		s[key] = lockAcquired
	case ck.kind == kindMutex && (sel.Sel.Name == "Unlock" || sel.Sel.Name == "RUnlock"):
		if pass != nil && s[key] == lockFree {
			pass.Reportf(call.Pos(), "%s.%s without a preceding %s on any path: unlock of an unheld lock", types.ExprString(sel.X), sel.Sel.Name, lockVerb(read))
		}
		s[key] = lockFree
	case ck.kind == kindWaitGroup && sel.Sel.Name == "Add":
		s[key] |= wgAdded
		s[key] &^= wgNone
	}
}

// reportBlockingOps flags channel operations and WaitGroup.Wait executed
// while any tracked mutex may be held.
func reportBlockingOps(pass *Pass, g *CFG, keys map[string]*concKey, n ast.Node, s FlowState[string]) {
	held := ""
	for k, ck := range keys {
		if ck.kind == kindMutex && s[k] != 0 && s[k]&lockFree == 0 {
			if held == "" || lockDisplay(k) < held {
				held = lockDisplay(k)
			}
		}
	}
	if held == "" {
		return
	}
	if stmt, ok := n.(ast.Stmt); ok && g.NonBlocking[stmt] {
		return // comm arm of a select with default: cannot block
	}
	if _, ok := n.(*ast.DeferStmt); ok {
		return // runs at exit, not here
	}
	info := pass.TypesInfo
	inspectLeaf(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Arrow, "channel send while %s is held: the lock blocks every other goroutine until a receiver arrives", held)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.OpPos, "channel receive while %s is held: the lock blocks every other goroutine until a sender arrives", held)
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok &&
				sel.Sel.Name == "Wait" && isSyncNamed(info.TypeOf(sel.X), "WaitGroup") {
				pass.Reportf(n.Pos(), "%s.Wait while %s is held: goroutines that need the lock to finish can never let Wait return", types.ExprString(sel.X), held)
			}
		}
		return true
	})
}

// reportUnbalancedDone checks a go statement whose closure calls wg.Done:
// on every path reaching the launch, some wg.Add must already have run,
// and the Add must not be inside the closure itself.
func reportUnbalancedDone(pass *Pass, info *types.Info, keys map[string]*concKey, gs *ast.GoStmt, s FlowState[string]) {
	lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !isSyncNamed(info.TypeOf(sel.X), "WaitGroup") {
			return true
		}
		key := types.ExprString(sel.X)
		switch sel.Sel.Name {
		case "Done":
			if ck := keys[key]; ck != nil && s[key] == wgNone {
				pass.Reportf(call.Pos(), "goroutine calls %s.Done but no %s.Add precedes the launch on any path: Wait can return before this goroutine runs", key, key)
			}
		case "Add":
			if ck := keys[key]; ck != nil {
				pass.Reportf(call.Pos(), "%s.Add inside the launched goroutine races with %s.Wait: call Add before the go statement", key, key)
			}
		}
		return true
	})
}

// checkGoStmts enforces the goroutine-lifetime rule on every go statement
// directly inside this body (closures are their own units): a launched
// closure needs a join edge — Done on a WaitGroup this body Waits on, or a
// send/close on a channel this body receives from. Named-function and
// method launches are exempt; their lifecycle belongs to the callee's
// owner.
func checkGoStmts(pass *Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	var gos []*ast.GoStmt
	inspectLeaf(body, func(n ast.Node) bool {
		if gs, ok := n.(*ast.GoStmt); ok {
			gos = append(gos, gs)
			// Keep walking: the closure's own go statements belong to the
			// closure's unit, which inspectLeaf already prunes.
		}
		return true
	})
	if len(gos) == 0 {
		return
	}

	// Join points offered by the enclosing body: WaitGroups it Waits on
	// and channels it receives from (plain receive, range, select arm).
	waits := map[string]bool{}
	recvs := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok &&
				sel.Sel.Name == "Wait" && isSyncNamed(info.TypeOf(sel.X), "WaitGroup") {
				waits[types.ExprString(sel.X)] = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				recvs[types.ExprString(ast.Unparen(n.X))] = true
			}
		case *ast.RangeStmt:
			if isChanType(info.TypeOf(n.X)) {
				recvs[types.ExprString(ast.Unparen(n.X))] = true
			}
		}
		return true
	})

	for _, gs := range gos {
		lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
		if !ok {
			continue
		}
		joined := false
		// A signal through a captured object (root declared outside this
		// body) is joined by the object's owner in another method; only
		// signals on body-local objects are decidable here, so the local
		// ones must land in a Wait/receive of this body and the captured
		// ones count as joined outright.
		external := func(e ast.Expr) bool { return !rootDeclaredIn(info, e, body) }
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				if ok && sel.Sel.Name == "Done" && isSyncNamed(info.TypeOf(sel.X), "WaitGroup") &&
					(waits[types.ExprString(sel.X)] || external(sel.X)) {
					joined = true
				}
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
					arg := ast.Unparen(n.Args[0])
					if isChanType(info.TypeOf(arg)) && (recvs[types.ExprString(arg)] || external(arg)) {
						joined = true
					}
				}
			case *ast.SendStmt:
				ch := ast.Unparen(n.Chan)
				if recvs[types.ExprString(ch)] || external(ch) {
					joined = true
				}
			}
			return !joined
		})
		if !joined {
			pass.Reportf(gs.Pos(), "goroutine closure has no join edge back to its launcher (no Done on a Waited WaitGroup, no send/close on a received channel): it can outlive this function")
		}
	}
}

// isSyncNamed reports whether t (or its pointee) is one of the named sync
// package types.
func isSyncNamed(t types.Type, names ...string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	for _, n := range names {
		if obj.Name() == n {
			return true
		}
	}
	return false
}

func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// rootDeclaredIn reports whether the leftmost identifier of a selector
// chain resolves to a variable declared inside body — a function-local
// mutex/WaitGroup, as opposed to a receiver field, parameter, or captured
// variable.
func rootDeclaredIn(info *types.Info, e ast.Expr, body *ast.BlockStmt) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			obj := identObj(info, x)
			return obj != nil && obj.Pos() >= body.Pos() && obj.Pos() < body.End()
		default:
			return false
		}
	}
}

// lockDisplay strips the read-lock marker for messages.
func lockDisplay(key string) string {
	if len(key) > 2 && key[len(key)-2:] == "#r" {
		return key[:len(key)-2] + " (read)"
	}
	return key
}

func lockVerb(read bool) string {
	if read {
		return "RLock"
	}
	return "Lock"
}
