package analysis

import (
	"go/ast"
	"go/build"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// This file computes per-function summaries over the call graph in
// callgraph.go: does the function allocate (and where), does it reach the
// global rand source or the transport, and which parameters escape. The summaries are solved bottom-up over the SCC condensation with
// a fixpoint inside each component (recursion), so by the time a caller is
// summarized every callee outside its own component is final.
//
// The summary lattice is a may-analysis over site sets: each fact is a
// *Site chain whose head is a position inside the summarized function (an
// allocation expression or a call) and whose Inner pointers descend
// through callees to the originating site — the provenance chain allocfree
// prints. Sets only grow during the fixpoint, a function has finitely many
// direct sites, and the facts that arrive through calls are capped at
// maxSites per category, so termination is structural.
//
// Three filters keep the summaries aligned with the analyzers' contracts:
//
//   - guarded slow paths — an if whose condition compares something to nil
//     (lazy initialization, observer branches) or inspects cap/len
//     (first-use buffer growth), isGuardedSlowPath — are excluded from
//     allocation facts, but not from rand facts: a guard sanctions
//     allocation, not nondeterminism;
//   - fmt.Errorf / errors.New directly inside a return statement is the
//     failure path, never the steady state, and contributes nothing;
//   - a site whose line carries a well-formed //nolint:netpart[/allocfree|
//     /determinism] suppression is dropped at the origin, so one reasoned
//     waiver stops the fact from resurfacing in every caller.
//
// Stdlib calls have no loaded bodies, so they are modeled: a small
// whitelist of provably non-allocating packages and methods (math,
// math/bits, sync/atomic, binary.PutUint*/Uint*, sync.Pool.Get/Put, lock
// and WaitGroup operations, time.Duration arithmetic, the UDP AddrPort
// datagram calls, runtime.Goexit, time.Now/Since/Until) passes; the
// auto-seeded math/rand globals contribute rand facts; every other stdlib
// call is conservatively assumed to allocate. Unresolved indirect calls are likewise conservative, except
// through //netpart:purecallback fields — the annotation-callback contract
// (core.Annotations), whose installed callbacks promise to be pure.
//
// Module functions written in assembly have no bodies either. One is
// modeled allocation-free when its Go declaration is //go:noescape (no
// pointer argument outlives the call) and its TEXT symbol is NOSPLIT with
// a $0 frame (it cannot grow the stack, and has no frame to call the
// runtime from): a leaf that works on its arguments and returns. Any other
// assembly function is assumed to allocate, and the finding says so.

// maxSites bounds the call-derived facts of each summary category (enough
// for useful diagnostics, small enough to keep the fixpoint cheap). A
// function's own allocation expressions are not capped: allocfree reports
// every one of them.
const maxSites = 8

// A Site is one link of a provenance chain.
type Site struct {
	// Pos is a position inside the summarized function: the allocating
	// expression itself, or the call through which the fact arrives.
	Pos token.Pos
	// Desc says what happens there ("make([]float64, N)", "call to
	// time.Now", "indirect call through cb.fn").
	Desc string
	// Callee is the resolved target when the fact arrives through a call.
	Callee *types.Func
	// ViaCall marks facts introduced at a call site (resolved, indirect,
	// or modeled stdlib) as opposed to direct allocation expressions. Only
	// the former count against maxSites.
	ViaCall bool
	// Inner is the callee-side site this call reaches (nil for leaves).
	Inner *Site
}

// Summary is the solved interprocedural fact set of one function.
type Summary struct {
	Fn *types.Func
	// Allocs are the reachable allocation sites outside guarded slow
	// paths (empty means: proven allocation-free through the whole call
	// tree, modulo the documented stdlib model).
	Allocs []*Site
	// Rand are reachable global-rand uses.
	Rand []*Site
	// comm reports that the function reaches a transport operation — a
	// Send/Recv/RecvAny call (transportCallKind) in its own body or,
	// through static calls, in a module function it calls. Interface
	// dispatch is not followed: the protocol extractor that consumes the
	// fact inlines bodies, and an interface call names none.
	comm bool
	// ParamEscapes mirrors FuncNode.ParamEscapes after the solve.
	ParamEscapes []bool
}

// Summary returns the solved summary of fn, or nil for functions outside
// the call graph (stdlib, undeclared).
func (ip *Interproc) Summary(fn *types.Func) *Summary { return ip.sums[fn] }

// --- intraprocedural seeding ---

// scanDirect populates a node's direct allocation sites and parameter
// escapes. Rand seeds come from call sites during the solve (they are
// stdlib calls).
func (ip *Interproc) scanDirect(node *FuncNode) {
	info := node.Pkg.Info
	var walk func(root ast.Node, guarded bool)
	walk = func(root ast.Node, guarded bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			if ifs, ok := n.(*ast.IfStmt); ok && !guarded && isGuardedSlowPath(ifs) {
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
			if guarded {
				return true // sanctioned slow path: no allocation facts
			}
			switch x := n.(type) {
			case *ast.CallExpr:
				ip.scanDirectCall(node, x, info)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
						ip.addDirectAlloc(node, x.Pos(), "&composite literal escapes to the heap")
					}
				}
			case *ast.FuncLit:
				if capt := capturedVar(info, node.Decl, x); capt != "" {
					ip.addDirectAlloc(node, x.Pos(), "closure captures \""+capt+"\"; captured closures allocate")
				}
			}
			return true
		})
	}
	walk(node.Decl.Body, false)
	ip.scanParamEscapes(node)
}

// scanDirectCall records the allocation behavior of builtin calls and
// explicit interface conversions (call edges are handled by the solve).
func (ip *Interproc) scanDirectCall(node *FuncNode, call *ast.CallExpr, info *types.Info) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && isBuiltin(info, id) {
		switch id.Name {
		case "make":
			ip.addDirectAlloc(node, call.Pos(), "make allocates")
		case "new":
			ip.addDirectAlloc(node, call.Pos(), "new allocates")
		case "append":
			if len(call.Args) > 0 {
				ip.scanDirectAppend(node, call, info)
			}
		}
		return
	}
	// Explicit conversion of a concrete value to an interface type.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if _, isIface := tv.Type.Underlying().(*types.Interface); isIface {
			if at := info.TypeOf(call.Args[0]); at != nil {
				if _, argIface := at.Underlying().(*types.Interface); !argIface {
					if b, basic := at.Underlying().(*types.Basic); !basic || b.Kind() != types.UntypedNil {
						ip.addDirectAlloc(node, call.Pos(), "conversion to interface boxes the value")
					}
				}
			}
		}
	}
}

// scanDirectAppend flags appends whose destination cannot amortize: a
// local slice declared without capacity, or a fresh slice built in the
// call itself. Reslice expressions (buf[:0]), parameters, fields, and
// make-sized locals pass.
func (ip *Interproc) scanDirectAppend(node *FuncNode, call *ast.CallExpr, info *types.Info) {
	switch dst := ast.Unparen(call.Args[0]).(type) {
	case *ast.SliceExpr:
		return // reuse idiom: append(buf[:0], ...)
	case *ast.Ident:
		obj := identObj(info, dst)
		if obj == nil {
			return
		}
		decl := localSliceDecl(node.Decl, obj)
		if decl == nil || declHasCapacity(info, decl, obj) {
			return
		}
		ip.addDirectAlloc(node, call.Pos(), "append to unsized local slice \""+dst.Name+"\" grows")
	case *ast.CompositeLit:
		ip.addDirectAlloc(node, call.Pos(), "append to a fresh slice literal allocates")
	case *ast.CallExpr:
		if tv, ok := info.Types[dst.Fun]; ok && tv.IsType() {
			ip.addDirectAlloc(node, call.Pos(), "append to a fresh nil-converted slice allocates")
		}
	}
}

func (ip *Interproc) addDirectAlloc(node *FuncNode, pos token.Pos, desc string) {
	if ip.suppressedAt(pos, "allocfree") {
		return
	}
	node.DirectAllocs = appendSite(node.DirectAllocs, &Site{Pos: pos, Desc: desc})
}

// scanParamEscapes marks parameters stored beyond the call: assigned to a
// selector (field) or package-level variable, or sent on a channel.
// Approximate — direct stores only.
func (ip *Interproc) scanParamEscapes(node *FuncNode) {
	info := node.Pkg.Info
	sig, ok := node.Fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return
	}
	idx := map[types.Object]int{}
	for i := 0; i < sig.Params().Len(); i++ {
		idx[sig.Params().At(i)] = i
	}
	node.ParamEscapes = make([]bool, sig.Params().Len())
	paramOf := func(e ast.Expr) (int, bool) {
		obj := identObj(info, e)
		if obj == nil {
			return 0, false
		}
		i, ok := idx[obj]
		return i, ok
	}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range s.Rhs {
				pi, ok := paramOf(rhs)
				if !ok || i >= len(s.Lhs) {
					continue
				}
				switch lhs := ast.Unparen(s.Lhs[i]).(type) {
				case *ast.SelectorExpr:
					node.ParamEscapes[pi] = true
				case *ast.Ident:
					if obj := identObj(info, lhs); obj != nil && obj.Parent() == node.Pkg.Types.Scope() {
						node.ParamEscapes[pi] = true
					}
				}
			}
		case *ast.SendStmt:
			if pi, ok := paramOf(s.Value); ok {
				node.ParamEscapes[pi] = true
			}
		}
		return true
	})
}

// --- the bottom-up solve ---

// solve seeds every node with its intraprocedural facts and then runs the
// SCC-ordered fixpoint, merging callee summaries through each call site.
func (ip *Interproc) solve() {
	for _, node := range ip.nodes {
		ip.scanDirect(node)
	}
	for _, scc := range ip.sccs {
		for _, node := range scc {
			s := &Summary{Fn: node.Fn, ParamEscapes: node.ParamEscapes}
			s.Allocs = append(s.Allocs, node.DirectAllocs...)
			ip.sums[node.Fn] = s
		}
		for changed := true; changed; {
			changed = false
			for _, node := range scc {
				if ip.resolveNode(node) {
					changed = true
				}
			}
		}
	}
}

// resolveNode recomputes one node's call-derived facts from the current
// callee summaries; it reports whether the summary grew.
func (ip *Interproc) resolveNode(node *FuncNode) bool {
	s := ip.sums[node.Fn]
	before, comm := len(s.Allocs)+len(s.Rand), s.comm
	for _, cs := range node.Calls {
		s.comm = s.comm || ip.reachesTransport(cs)
		pos := cs.Call.Pos()
		allocOK := !cs.Guarded && !ip.suppressedAt(pos, "allocfree")
		detOK := !ip.suppressedAt(pos, "determinism")
		if cs.PureCallback {
			continue
		}
		if cs.IndirectDesc != "" {
			if allocOK {
				s.Allocs = appendSite(s.Allocs, &Site{Pos: pos, Desc: "indirect call through " + cs.IndirectDesc + " (unresolved, assumed allocating)", ViaCall: true})
			}
			continue
		}
		if cs.Interface && len(cs.Targets) == 0 {
			if allocOK {
				s.Allocs = appendSite(s.Allocs, &Site{Pos: pos, Desc: "interface call with no in-module implementation (assumed allocating)", ViaCall: true})
			}
			continue
		}
		for _, target := range cs.Targets {
			if tn := ip.nodes[target]; tn != nil {
				ts := ip.sums[target]
				if ts == nil {
					continue // same-SCC member not yet seeded this round
				}
				if allocOK && len(ts.Allocs) > 0 {
					s.Allocs = appendSite(s.Allocs, &Site{Pos: pos, Desc: "call to " + funcLabel(target), Callee: target, Inner: ts.Allocs[0], ViaCall: true})
				}
				if detOK && len(ts.Rand) > 0 {
					s.Rand = appendSite(s.Rand, &Site{Pos: pos, Desc: "call to " + funcLabel(target), Callee: target, Inner: ts.Rand[0], ViaCall: true})
				}
				continue
			}
			if leaf, isAsm := ip.asm[target]; isAsm {
				if allocOK && !leaf {
					s.Allocs = appendSite(s.Allocs, &Site{Pos: pos, Desc: "call to " + funcLabel(target) + " (assembly, not modeled allocation-free)", ViaCall: true})
				}
				continue
			}
			// No body: stdlib (or unloaded) — consult the model.
			ip.mergeStdlib(s, cs, target, allocOK, detOK)
		}
	}
	return len(s.Allocs)+len(s.Rand) != before || s.comm != comm
}

// reachesTransport reports whether one call site is a transport operation
// or a static call into a function whose summary already reaches one.
func (ip *Interproc) reachesTransport(cs *Callsite) bool {
	if _, ok := transportCallKind(cs.Call); ok {
		return true
	}
	if cs.Interface {
		return false
	}
	for _, target := range cs.Targets {
		if ts := ip.sums[target]; ts != nil && ts.comm {
			return true
		}
	}
	return false
}

// mergeStdlib folds one modeled stdlib callee into the summary.
func (ip *Interproc) mergeStdlib(s *Summary, cs *Callsite, fn *types.Func, allocOK, detOK bool) {
	pos := cs.Call.Pos()
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	name := fn.Name()
	switch pkg {
	case "time":
		if name == "Now" || name == "Since" || name == "Until" {
			return
		}
	case "math/rand", "math/rand/v2":
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil && !seededRandConstructors[name] {
			if detOK {
				s.Rand = appendSite(s.Rand, &Site{Pos: pos, Desc: "global " + pkg[strings.LastIndex(pkg, "/")+1:] + "." + name, ViaCall: true})
			}
			return
		}
	}
	if !allocOK || nonallocStdlib(fn) {
		return
	}
	if (pkg == "fmt" && name == "Errorf") || (pkg == "errors" && name == "New") {
		if cs.InReturn || cs.InPanic {
			return // error construction on the failure path only
		}
	}
	if pkg == "fmt" && strings.HasPrefix(name, "Sprint") && cs.InPanic {
		return // panic(fmt.Sprintf(...)): the failure path, never steady state
	}
	s.Allocs = appendSite(s.Allocs, &Site{Pos: pos, Desc: "call to " + funcLabel(fn) + " (stdlib, not modeled allocation-free)", ViaCall: true})
}

// asmTextRe matches an assembly function's header and captures its name,
// its flags and its frame size: TEXT ·name(SB), NOSPLIT, $0-48.
var asmTextRe = regexp.MustCompile(`(?m)^TEXT\s+·(\w+)(?:<\w+>)?\(SB\)\s*,\s*([^,\n]+?)\s*,\s*\$(-?\d+)`)

// collectAssembly records the package's body-less function declarations
// and which of them the package's .s files (those the host's build would
// assemble) define as frameless NOSPLIT leaves behind a //go:noescape
// declaration. An unreadable .s file models nothing: its functions stay
// "assumed to allocate".
func (ip *Interproc) collectAssembly(pkg *Package) {
	var leaves map[string]bool
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body != nil {
				continue
			}
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			if leaves == nil {
				leaves = asmLeaves(pkg.Dir)
			}
			ip.asm[fn] = funcHasDirective(fd, "go:noescape") && leaves[fd.Name.Name]
		}
	}
}

// asmLeaves returns the names of the TEXT symbols in dir's assembly files
// that are NOSPLIT and have a $0 frame.
func asmLeaves(dir string) map[string]bool {
	leaves := map[string]bool{}
	names, _ := filepath.Glob(filepath.Join(dir, "*.s"))
	for _, name := range names {
		if ok, err := build.Default.MatchFile(dir, filepath.Base(name)); err != nil || !ok {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			continue
		}
		for _, m := range asmTextRe.FindAllStringSubmatch(string(src), -1) {
			leaves[m[1]] = strings.Contains(m[2], "NOSPLIT") && m[3] == "0"
		}
	}
	return leaves
}

// nonallocStdPkgs are packages whose exported functions and methods never
// heap-allocate.
var nonallocStdPkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
	"unsafe":      true,
	"cmp":         true,
}

// nonallocSyncMethods are the sync primitives hot paths are allowed to
// touch. sync.Pool.Get/Put are the designed amortization mechanism
// (buffers recycle instead of allocating once the pool is warm).
var nonallocSyncMethods = map[string]bool{
	"Lock": true, "Unlock": true, "RLock": true, "RUnlock": true,
	"TryLock": true, "TryRLock": true,
	"Get": true, "Put": true,
	"Add": true, "Done": true, "Wait": true,
}

// nonallocStdlib reports whether a body-less callee is modeled as
// allocation-free. Everything not listed is conservatively allocating.
func nonallocStdlib(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return true // universe-scope (error.Error reached via interface has a pkg; builtins never get here)
	}
	path := pkg.Path()
	if nonallocStdPkgs[path] {
		return true
	}
	name := fn.Name()
	switch path {
	case "encoding/binary":
		return strings.HasPrefix(name, "Uint") || strings.HasPrefix(name, "PutUint") ||
			strings.HasPrefix(name, "PutVarint") || strings.HasPrefix(name, "Varint")
	case "sync":
		return nonallocSyncMethods[name]
	case "runtime":
		// Goexit ends the calling goroutine: it runs once, on the way out,
		// never in a steady state (simnet unwinds a deadlocked task with it).
		return name == "Goexit"
	case "net":
		// The AddrPort datagram calls exist to be allocation-free: a
		// netip.AddrPort value where ReadFromUDP/WriteToUDP take or return
		// a heap *UDPAddr.
		return name == "ReadFromUDPAddrPort" || name == "WriteToUDPAddrPort"
	case "time":
		// time.Duration arithmetic (Seconds, Milliseconds, ...) is pure;
		// only methods qualify — package-level constructors may allocate.
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if named, ok := t.(*types.Named); ok && named.Obj().Name() == "Duration" {
				return true
			}
		}
	}
	return false
}

// appendSite adds a site, deduplicating by position. Call-derived sites
// respect the per-category cap; direct sites are never dropped.
func appendSite(sites []*Site, site *Site) []*Site {
	viaCall := 0
	for _, s := range sites {
		if s.Pos == site.Pos {
			return sites
		}
		if s.ViaCall {
			viaCall++
		}
	}
	if site.ViaCall && viaCall >= maxSites {
		return sites
	}
	return append(sites, site)
}

// RenderChain formats a provenance chain for diagnostics:
//
//	call to core.(Estimator).cluster → make allocates (estimate.go:101)
func (ip *Interproc) RenderChain(site *Site) string {
	var b strings.Builder
	cur := site
	for depth := 0; cur != nil && depth < 8; depth++ {
		if depth > 0 {
			b.WriteString(" → ")
		}
		if cur.Callee != nil {
			b.WriteString(funcLabel(cur.Callee))
		} else {
			b.WriteString(cur.Desc)
			pos := ip.fset.Position(cur.Pos)
			b.WriteString(" (" + shortPos(pos) + ")")
		}
		cur = cur.Inner
	}
	return b.String()
}

// shortPos trims a position to basename:line.
func shortPos(p token.Position) string {
	return filepath.Base(p.Filename) + ":" + strconv.Itoa(p.Line)
}
