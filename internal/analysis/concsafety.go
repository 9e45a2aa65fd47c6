package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ConcSafety is the flow-sensitive concurrency analyzer. It runs the CFG +
// forward-dataflow engine (cfg.go, dataflow.go) over every function-like
// body and enforces lock pairing, which the concurrency-heavy packages
// (experiments, mmps, faults, stencil) rely on: every sync.Mutex/RWMutex
// Lock acquired inside a function is released on every path to the exit,
// counting deferred unlocks; double-Lock and Unlock-of-unheld are reported
// where the lattice proves them on all paths.
//
// Blocking under a lock, WaitGroup balance and goroutine lifetime are not
// checked: the tests hang or race on each of them (EXPERIMENTS E32).
//
// Mutexes are keyed by the source text of their receiver expression
// (types.ExprString), so `c.mu` in two statements is one lock.
// A key whose root variable is declared inside the analyzed body starts
// unlocked; receivers, parameters, and captured variables start in the
// unknown state, so helpers that are documented to run under a caller's
// lock produce no noise.
var ConcSafety = &Analyzer{
	Name: "concsafety",
	Doc:  "CFG-based lock pairing: every Lock released on every path, no double Lock, no Unlock of an unheld lock",
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

// concKey is one tracked mutex within a function body.
type concKey struct {
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
	if len(keys) == 0 {
		return
	}

	g := BuildCFG(body)
	entry := FlowState[string]{}
	for k, ck := range keys {
		entry[k] = lockFree
		if !ck.local {
			entry[k] |= lockHeldEntry
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
		if ck.firstLock != 0 && s[k]&lockAcquired != 0 {
			pass.Reportf(ck.firstLock, "%s acquired here may still be held when the function returns: a path to the exit is missing the Unlock (or a defer)", lockDisplay(k))
		}
	}
}

// concKeys discovers the mutexes a body touches, with their locality.
// Closure bodies are pruned: each FuncLit is its own unit.
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
		if !isSyncNamed(info.TypeOf(sel.X), "Mutex", "RWMutex") {
			return true
		}
		switch sel.Sel.Name {
		case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
		default:
			return true
		}
		key := types.ExprString(sel.X)
		if sel.Sel.Name == "RLock" || sel.Sel.Name == "RUnlock" || sel.Sel.Name == "TryRLock" {
			key += "#r"
		}
		ck := keys[key]
		if ck == nil {
			ck = &concKey{local: rootDeclaredIn(info, sel.X, body)}
			keys[key] = ck
		}
		if (sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock") && ck.firstLock == 0 {
			ck.firstLock = call.Pos()
		}
		return true
	})
	return keys
}

// concTransferNode applies one block node's lock effects to s. With a
// non-nil pass it also reports must-state violations (double lock, unlock
// of unheld). DeferStmt nodes have no in-place effect: their calls run at
// exit and are handled there; a go statement's calls run elsewhere.
func concTransferNode(info *types.Info, keys map[string]*concKey, n ast.Node, s FlowState[string], pass *Pass) {
	switch n.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		return
	}
	inspectLeaf(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			applyConcCall(info, keys, call, s, pass)
		}
		return true
	})
}

// applyConcCall updates s for one Lock/Unlock/RLock/RUnlock call.
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
	if keys[key] == nil {
		return
	}
	switch {
	case sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock":
		// Double-RLock is legal (read locks are shared); double-Lock on
		// every path is a self-deadlock.
		if pass != nil && !read && s[key] != 0 && s[key]&lockFree == 0 {
			pass.Reportf(call.Pos(), "%s.Lock while the lock is already held on every path here: self-deadlock", types.ExprString(sel.X))
		}
		s[key] = lockAcquired
	case sel.Sel.Name == "Unlock" || sel.Sel.Name == "RUnlock":
		if pass != nil && s[key] == lockFree {
			pass.Reportf(call.Pos(), "%s.%s without a preceding %s on any path: unlock of an unheld lock", types.ExprString(sel.X), sel.Sel.Name, lockVerb(read))
		}
		s[key] = lockFree
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

// rootDeclaredIn reports whether the leftmost identifier of a selector
// chain resolves to a variable declared inside body — a function-local
// mutex, as opposed to a receiver field, parameter, or captured
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
