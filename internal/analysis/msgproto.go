package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// MsgProto checks the symmetry of the module's wire codecs: every
// encoder/decoder pair over one wire format (a "group") must touch the
// same field sequence with the same widths in the same order — the repart
// migration codec, the stencil halo and FT frames, and the mmps packet
// header are all hand-rolled byte layouts whose asymmetry silently
// corrupts rows instead of failing loudly. Functions join a group by name (Encode*/Decode*/Append*/Parse* with
// Into/To/From suffixes stripped; a bare encode/decode method takes its
// receiver type's name) or explicitly via //netpart:wire <group>
// <encode|decode>. Each function's byte-level operations are abstracted
// into a wire shape — u16/u32/u64 loads and stores, single-byte moves,
// blob copies, and nested-codec calls, each with a normalized offset and
// a repeated flag for loop bodies — and every shape in a group is
// compared op-by-op against the group's canonical shape. Groups with
// only one side present are skipped (helpers are not a protocol), as are
// shapes that merely delegate to another codec of the same group.
//
// The same codec index names the wire group of every send and receive in
// a //netpart:lockstep round (protoextract.go); whether those rounds pair
// up and terminate is netpartverify's to prove, not this analyzer's.
var MsgProto = &Analyzer{
	Name: "msgproto",
	Doc:  "checks that the EncodeX/DecodeX pair of every wire group touches the same field sequence",
	Run:  runMsgProto,
}

func runMsgProto(pass *Pass) error {
	ip := pass.Inter
	if ip == nil {
		return nil
	}
	wi := ip.wireIndexOf()
	for _, fd := range enclosingFuncDecls(pass.Files) {
		fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if fn == nil {
			continue
		}
		if wf := wi.fns[fn]; wf != nil {
			checkWireShape(pass, wi, wf)
		}
	}
	return nil
}

// --- wire shapes ---

// wireOp is one abstract byte-level operation of a codec.
type wireOp struct {
	Kind string // "byte", "u16", "u32", "u64", "blob", "group:<name>"
	// Off is the normalized offset within the op's base run ("-" for
	// nested-codec ops, "?" when the offset expression does not fold).
	Off string
	Rep bool // inside a loop
	Pos token.Pos

	baseKey string
	k       int
	konst   bool
	noOff   bool
}

func (op *wireOp) render() string {
	s := op.Kind
	if op.Rep {
		s = "repeated " + s
	}
	if !op.noOff && op.Off != "?" {
		if strings.HasPrefix(op.Off, "-") {
			s += " at " + op.Off
		} else {
			s += " at +" + op.Off
		}
	}
	return s
}

// wireFn is one codec function with its extracted shape.
type wireFn struct {
	Fn    *types.Func
	Decl  *ast.FuncDecl
	Pkg   *Package
	Group string
	Side  string // "encode" or "decode"
	Ops   []*wireOp
	// Alias marks delegating shapes (a single nested-codec op of the own
	// group) and empty shapes; they are excluded from comparison.
	Alias bool
}

// wireIndex is the module-wide codec collection.
type wireIndex struct {
	fns    map[*types.Func]*wireFn
	groups map[string][]*wireFn
}

// wireIndexOf builds (once) the codec index over the loaded module.
func (ip *Interproc) wireIndexOf() *wireIndex {
	if ip.wire != nil {
		return ip.wire
	}
	wi := &wireIndex{fns: map[*types.Func]*wireFn{}, groups: map[string][]*wireFn{}}
	ip.wire = wi
	// Pass 1: classify codec candidates by directive or naming convention,
	// so pass 2 can recognize nested-codec calls across packages.
	for _, pkg := range ip.pkgs {
		for _, fd := range enclosingFuncDecls(pkg.Files) {
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			group, side, ok := codecIdentity(fd, fn)
			if !ok {
				continue
			}
			wf := &wireFn{Fn: fn, Decl: fd, Pkg: pkg, Group: group, Side: side}
			wi.fns[fn] = wf
		}
	}
	// Pass 2: extract shapes; functions with no byte-level ops are name
	// coincidences (parse/append helpers), not codecs.
	for _, wf := range wi.fns {
		extractWireShape(ip, wi, wf)
	}
	for _, wf := range wi.fns {
		if wf.Alias {
			continue
		}
		wi.groups[wf.Group] = append(wi.groups[wf.Group], wf)
	}
	for _, fns := range wi.groups {
		sort.Slice(fns, func(i, j int) bool { return fns[i].Decl.Pos() < fns[j].Decl.Pos() })
	}
	return wi
}

// codecIdentity derives (group, side) from a //netpart:wire directive or
// the function's name: Encode*/Append* write, Decode*/Parse* read, with
// Into/To/From suffixes stripped; an empty remainder (encode/encodeTo
// methods) takes the receiver type's name.
func codecIdentity(fd *ast.FuncDecl, fn *types.Func) (group, side string, ok bool) {
	if args := directiveRest(fd.Doc, "netpart:wire"); args != "" {
		parts := strings.Fields(args)
		if len(parts) == 2 && (parts[1] == "encode" || parts[1] == "decode") {
			return strings.ToLower(parts[0]), parts[1], true
		}
		return "", "", false
	}
	name := strings.ToLower(fn.Name())
	for _, p := range [...]struct{ prefix, side string }{
		{"encode", "encode"}, {"append", "encode"},
		{"decode", "decode"}, {"parse", "decode"},
	} {
		rest, found := strings.CutPrefix(name, p.prefix)
		if !found {
			continue
		}
		for _, suf := range [...]string{"into", "to", "from"} {
			rest = strings.TrimSuffix(rest, suf)
		}
		if rest == "" {
			if sig, isSig := fn.Type().(*types.Signature); isSig && sig.Recv() != nil {
				t := sig.Recv().Type()
				if p, isPtr := t.(*types.Pointer); isPtr {
					t = p.Elem()
				}
				if named, isNamed := t.(*types.Named); isNamed {
					rest = strings.ToLower(named.Obj().Name())
				}
			}
		}
		if rest == "" {
			return "", "", false
		}
		return rest, p.side, true
	}
	return "", "", false
}

// directiveRest returns the text after //netpart:<name> in a comment
// group, or "".
func directiveRest(cg *ast.CommentGroup, directive string) string {
	if cg == nil {
		return ""
	}
	for _, c := range cg.List {
		text := strings.TrimPrefix(c.Text, "//")
		if rest, ok := strings.CutPrefix(text, directive+" "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// extractWireShape walks one codec body and abstracts its byte-level
// operations, pruning guarded slow paths (length validation, buffer
// growth) and skipping expressions feeding fmt/errors calls (error
// messages quote fields without being part of the wire layout).
func extractWireShape(ip *Interproc, wi *wireIndex, wf *wireFn) {
	info := wf.Pkg.Info
	var ops []*wireOp
	written := map[*ast.IndexExpr]bool{}
	var walk func(n ast.Node, guarded bool, loop bool)
	walk = func(root ast.Node, guarded bool, loop bool) {
		if root == nil {
			return
		}
		ast.Inspect(root, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.IfStmt:
				if !guarded && isGuardedSlowPath(x) {
					if x.Init != nil {
						walk(x.Init, guarded, loop)
					}
					walk(x.Cond, guarded, loop)
					walk(x.Body, true, loop)
					walk(x.Else, guarded, loop)
					return false
				}
			case *ast.ForStmt:
				walk(x.Init, guarded, loop)
				walk(x.Cond, guarded, loop)
				walk(x.Post, guarded, loop)
				walk(x.Body, guarded, true)
				return false
			case *ast.RangeStmt:
				walk(x.X, guarded, loop)
				walk(x.Body, guarded, true)
				return false
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isByteIndex(info, idx) {
						written[idx] = true
						if !guarded {
							ops = append(ops, byteOp(info, idx, loop))
						}
					}
				}
			case *ast.IndexExpr:
				if !guarded && !written[x] && isByteIndex(info, x) {
					ops = append(ops, byteOp(info, x, loop))
				}
				return true
			case *ast.CallExpr:
				if op, skipArgs := wireCallOp(ip, wi, wf, info, x, loop); op != nil || skipArgs {
					if op != nil && !guarded {
						ops = append(ops, op)
					}
					if skipArgs {
						return false
					}
				}
			}
			return true
		})
	}
	walk(wf.Decl.Body, false, false)
	finishWireShape(wf, ops)
}

// byteOp abstracts a single-byte slice access.
func byteOp(info *types.Info, idx *ast.IndexExpr, loop bool) *wireOp {
	op := &wireOp{Kind: "byte", Rep: loop, Pos: idx.Pos()}
	op.baseKey, op.k, op.konst = foldOffset(info, idx.Index)
	return op
}

// isByteIndex reports whether the index expression reads or writes one
// byte of a byte slice or array.
func isByteIndex(info *types.Info, idx *ast.IndexExpr) bool {
	t := info.TypeOf(idx.X)
	if t == nil {
		return false
	}
	var elem types.Type
	switch u := t.Underlying().(type) {
	case *types.Slice:
		elem = u.Elem()
	case *types.Array:
		elem = u.Elem()
	default:
		return false
	}
	b, ok := elem.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8)
}

// wireCallOp abstracts one call inside a codec body: fixed-width
// binary.*Endian loads/stores, blob copies, nested-codec calls, and
// byte-array conversions. skipArgs requests that the call's argument
// subtree not be scanned (fmt/errors calls, nested codecs).
func wireCallOp(ip *Interproc, wi *wireIndex, wf *wireFn, info *types.Info, call *ast.CallExpr, loop bool) (op *wireOp, skipArgs bool) {
	// Conversion to a byte array ([4]byte(buf[0:4])): a blob read.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if arr, isArr := tv.Type.Underlying().(*types.Array); isArr {
			if b, isBasic := arr.Elem().Underlying().(*types.Basic); isBasic && (b.Kind() == types.Byte || b.Kind() == types.Uint8) {
				op = &wireOp{Kind: "blob", Rep: loop, Pos: call.Pos()}
				op.baseKey, op.k, op.konst = foldSliceLow(info, call.Args[0])
				return op, true
			}
		}
		return nil, false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && isBuiltin(info, id) {
		if id.Name == "copy" && len(call.Args) == 2 {
			op = &wireOp{Kind: "blob", Rep: loop, Pos: call.Pos()}
			op.baseKey, op.k, op.konst = foldSliceLow(info, call.Args[0])
			return op, true
		}
		return nil, false
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return nil, false
	}
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	switch pkgPath {
	case "fmt", "errors":
		return nil, true // message text, not wire layout
	case "encoding/binary":
		width := fixedWidthKind(fn.Name())
		if width == "" {
			return nil, false
		}
		op = &wireOp{Kind: width, Rep: loop, Pos: call.Pos()}
		if len(call.Args) > 0 {
			op.baseKey, op.k, op.konst = foldSliceLow(info, call.Args[0])
		}
		return op, true
	}
	if nested := wi.fns[fn]; nested != nil {
		return &wireOp{Kind: "group:" + nested.Group, Rep: loop, Pos: call.Pos(), noOff: true}, true
	}
	return nil, false
}

// fixedWidthKind maps binary.*Endian method names to op kinds.
func fixedWidthKind(name string) string {
	switch name {
	case "Uint16", "PutUint16":
		return "u16"
	case "Uint32", "PutUint32":
		return "u32"
	case "Uint64", "PutUint64":
		return "u64"
	}
	return ""
}

// foldOffset folds an offset expression into (base, constant): a plain
// constant ("" base), an identifier plus constant (running-offset
// idiom), or unfoldable ("?").
func foldOffset(info *types.Info, e ast.Expr) (baseKey string, k int, konst bool) {
	e = ast.Unparen(e)
	if tv, ok := info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
		if v, exact := constant.Int64Val(tv.Value); exact {
			return "", int(v), true
		}
	}
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name, 0, true
	case *ast.SelectorExpr:
		return exprText(x), 0, true
	case *ast.BinaryExpr:
		if x.Op == token.ADD {
			lb, lk, lok := foldOffset(info, x.X)
			rb, rk, rok := foldOffset(info, x.Y)
			if lok && rok {
				switch {
				case lb == "":
					return rb, lk + rk, true
				case rb == "":
					return lb, lk + rk, true
				}
			}
		}
	}
	return "?", 0, false
}

// foldSliceLow folds the low bound of a slice expression argument
// (buf[off:] → off, buf → 0).
func foldSliceLow(info *types.Info, e ast.Expr) (string, int, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.SliceExpr:
		if x.Low == nil {
			return "", 0, true
		}
		return foldOffset(info, x.Low)
	case *ast.Ident, *ast.SelectorExpr:
		return "", 0, true
	}
	return "?", 0, false
}

// finishWireShape normalizes offsets (each run of ops sharing a base is
// rebased on its first op, so constant layouts and running-offset
// layouts compare equal), strips trailing blob payloads (the encode side
// copies the payload, the decode side reslices it — both are tails, not
// fields), and marks alias/empty shapes.
func finishWireShape(wf *wireFn, ops []*wireOp) {
	base, first := "\x00", 0
	for _, op := range ops {
		if op.noOff {
			op.Off = "-"
			base = "\x00"
			continue
		}
		if !op.konst {
			op.Off = "?"
			base = "\x00"
			continue
		}
		if op.baseKey != base {
			base = op.baseKey
			first = op.k
		}
		op.Off = strconv.Itoa(op.k - first)
	}
	for len(ops) > 0 && ops[len(ops)-1].Kind == "blob" {
		ops = ops[:len(ops)-1]
	}
	wf.Ops = ops
	if len(ops) == 0 {
		wf.Alias = true
		return
	}
	if len(ops) == 1 && ops[0].Kind == "group:"+wf.Group {
		wf.Alias = true
	}
}

// checkWireShape compares one codec's shape against its group's
// canonical shape (the earliest-declared encoder). Reported in the
// package declaring the deviating codec; the canonical function itself
// never reports, so each asymmetry surfaces exactly once.
func checkWireShape(pass *Pass, wi *wireIndex, wf *wireFn) {
	if wf.Alias {
		return
	}
	group := wi.groups[wf.Group]
	var enc, dec bool
	for _, g := range group {
		enc = enc || g.Side == "encode"
		dec = dec || g.Side == "decode"
	}
	if !enc || !dec {
		return // helper name coincidence, not a protocol
	}
	canon := group[0]
	for _, g := range group {
		if g.Side == "encode" {
			canon = g
			break
		}
	}
	if wf == canon {
		return
	}
	a, b := canon.Ops, wf.Ops
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if !wireOpsMatch(a[i], b[i]) {
			pass.Reportf(b[i].Pos,
				"wire group %q: %s %ss %s at step %d where %s %ss %s; encoder and decoder must touch the same field sequence",
				wf.Group, funcLabel(wf.Fn), sideVerb(wf.Side), b[i].render(), i+1,
				funcLabel(canon.Fn), sideVerb(canon.Side), a[i].render())
			return
		}
	}
	if len(a) != len(b) {
		pass.Reportf(wf.Decl.Pos(),
			"wire group %q: %s has %d field operations but %s has %d; encoder and decoder must touch the same field sequence",
			wf.Group, funcLabel(wf.Fn), len(b), funcLabel(canon.Fn), len(a))
	}
}

func sideVerb(side string) string {
	if side == "encode" {
		return "write"
	}
	return "read"
}

// wireOpsMatch compares two abstract ops; unfoldable offsets act as
// wildcards.
func wireOpsMatch(a, b *wireOp) bool {
	if a.Kind != b.Kind || a.Rep != b.Rep {
		return false
	}
	if a.Off == "?" || b.Off == "?" {
		return true
	}
	return a.Off == b.Off
}
