package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the control-flow-graph half of the flow-sensitive analysis
// engine: an intraprocedural CFG built from go/ast alone, consumed by the
// forward dataflow solver in dataflow.go. One CFG covers one function-like
// body (a FuncDecl or a FuncLit); closures are separate CFGs, because their
// bodies execute at a different time than the statements around them.
//
// Blocks carry "leaf" nodes only — simple statements and the control
// expressions of compound statements (an if's condition, a switch's tag, a
// range's operand). Compound statements themselves never appear inside a
// block, so a transfer function may inspect a node without accidentally
// descending into statements that live in other blocks. FuncLit bodies are
// the one exception: they appear nested inside leaf nodes and transfer
// functions must prune them (see inspectLeaf).

// A Block is one basic block: leaf nodes executed in order, then a jump to
// one of Succs.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// A CFG is the control-flow graph of one function-like body.
type CFG struct {
	// Blocks lists every block in creation order; Blocks[0] is the entry.
	Blocks []*Block
	Entry  *Block
	// Exit is the synthetic exit block: returns, panics, and falling off
	// the end all edge here. It carries no nodes.
	Exit *Block
	// Defers lists the deferred calls in registration order. Analyzers
	// model them as running at Exit (in reverse order); a DeferStmt node
	// inside a block must therefore have no transfer effect in place.
	Defers []*ast.CallExpr
	// Ranges maps a range loop's head block to its statement: analyzers
	// that track per-variable state treat the Key/Value variables as
	// freshly assigned each time the head executes.
	Ranges map[*Block]*ast.RangeStmt
}

// NumEdges returns the total number of edges, for golden CFG-shape tests.
func (g *CFG) NumEdges() int {
	n := 0
	for _, b := range g.Blocks {
		n += len(b.Succs)
	}
	return n
}

// Reachable returns, indexed by Block.Index, whether each block is
// reachable from the entry.
func (g *CFG) Reachable() []bool {
	seen := make([]bool, len(g.Blocks))
	var walk func(*Block)
	walk = func(b *Block) {
		if seen[b.Index] {
			return
		}
		seen[b.Index] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(g.Entry)
	return seen
}

// BuildCFG constructs the CFG of one function body. The body may be a
// FuncDecl's or a FuncLit's; both are plain *ast.BlockStmt.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:    &CFG{Ranges: map[*Block]*ast.RangeStmt{}},
		labels: map[string]*Block{},
	}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	// Falling off the end of the body is an implicit return.
	b.edge(b.cur, b.cfg.Exit)
	return b.cfg
}

// loopScope is one enclosing breakable/continuable construct.
type loopScope struct {
	label string
	brk   *Block // break target (nil for constructs without one)
	cont  *Block // continue target (nil for switch/select)
}

type cfgBuilder struct {
	cfg    *CFG
	cur    *Block
	scopes []loopScope
	labels map[string]*Block // label name → target block (goto / labeled stmt)
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

func (b *cfgBuilder) add(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

// labelBlock returns (creating on first use) the block a label names, so
// forward gotos resolve.
func (b *cfgBuilder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

// findScope locates the innermost matching break/continue target.
func (b *cfgBuilder) findScope(label string, cont bool) *Block {
	for i := len(b.scopes) - 1; i >= 0; i-- {
		s := b.scopes[i]
		if label != "" && s.label != label {
			continue
		}
		if cont {
			if s.cont != nil {
				return s.cont
			}
			if label != "" {
				return nil // labeled continue on a non-loop: malformed
			}
			continue
		}
		return s.brk
	}
	return nil
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt translates one statement. label is the name of an enclosing
// LabeledStmt directly wrapping this statement (for labeled break/continue).
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		b.edge(b.cur, lb)
		b.cur = lb
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.cfg.Exit)
		b.cur = b.newBlock()

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := b.findScope(labelName(s.Label), false); t != nil {
				b.edge(b.cur, t)
			}
			b.cur = b.newBlock()
		case token.CONTINUE:
			if t := b.findScope(labelName(s.Label), true); t != nil {
				b.edge(b.cur, t)
			}
			b.cur = b.newBlock()
		case token.GOTO:
			b.edge(b.cur, b.labelBlock(s.Label.Name))
			b.cur = b.newBlock()
		case token.FALLTHROUGH:
			// The switch translation adds the edge to the next clause.
		}

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		after := b.newBlock()
		then := b.newBlock()
		b.edge(cond, then)
		b.cur = then
		b.stmtList(s.Body.List)
		b.edge(b.cur, after)
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cond, els)
			b.cur = els
			b.stmt(s.Else, "")
			b.edge(b.cur, after)
		} else {
			b.edge(cond, after)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		b.edge(b.cur, head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		body := b.newBlock()
		post := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, after)
		}
		b.scopes = append(b.scopes, loopScope{label: label, brk: after, cont: post})
		b.cur = body
		b.stmtList(s.Body.List)
		b.edge(b.cur, post)
		b.scopes = b.scopes[:len(b.scopes)-1]
		if s.Post != nil {
			post.Nodes = append(post.Nodes, s.Post)
		}
		b.edge(post, head)
		b.cur = after

	case *ast.RangeStmt:
		b.add(s.X)
		head := b.newBlock()
		b.cfg.Ranges[head] = s
		b.edge(b.cur, head)
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		b.edge(head, after)
		b.scopes = append(b.scopes, loopScope{label: label, brk: after, cont: head})
		b.cur = body
		b.stmtList(s.Body.List)
		b.edge(b.cur, head)
		b.scopes = b.scopes[:len(b.scopes)-1]
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchClauses(s.Body.List, label, func(cc *ast.CaseClause, blk *Block) {
			for _, e := range cc.List {
				blk.Nodes = append(blk.Nodes, e)
			}
		})

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchClauses(s.Body.List, label, nil)

	case *ast.SelectStmt:
		head := b.cur
		after := b.newBlock()
		b.scopes = append(b.scopes, loopScope{label: label, brk: after})
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			blk := b.newBlock()
			b.edge(head, blk)
			if cc.Comm != nil {
				blk.Nodes = append(blk.Nodes, cc.Comm)
			}
			b.cur = blk
			b.stmtList(cc.Body)
			b.edge(b.cur, after)
		}
		b.scopes = b.scopes[:len(b.scopes)-1]
		b.cur = after

	case *ast.DeferStmt:
		b.cfg.Defers = append(b.cfg.Defers, s.Call)
		b.add(s)

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				b.edge(b.cur, b.cfg.Exit)
				b.cur = b.newBlock()
			}
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// AssignStmt, DeclStmt, GoStmt, IncDecStmt, SendStmt, ...
		b.add(s)
	}
}

// switchClauses translates the clause list shared by switch and type
// switch: every clause body gets its own block fed from the current block,
// a trailing fallthrough edges to the next clause's body, and the implicit
// break edges to the join block.
func (b *cfgBuilder) switchClauses(list []ast.Stmt, label string, caseExprs func(*ast.CaseClause, *Block)) {
	head := b.cur
	after := b.newBlock()
	var clauses []*ast.CaseClause
	var bodies []*Block
	hasDefault := false
	for _, c := range list {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		b.edge(head, blk)
		if caseExprs != nil {
			caseExprs(cc, blk)
		}
		if cc.List == nil {
			hasDefault = true
		}
		clauses = append(clauses, cc)
		bodies = append(bodies, blk)
	}
	if !hasDefault {
		b.edge(head, after)
	}
	b.scopes = append(b.scopes, loopScope{label: label, brk: after})
	for i, cc := range clauses {
		b.cur = bodies[i]
		b.stmtList(cc.Body)
		if i+1 < len(bodies) && endsInFallthrough(cc.Body) {
			b.edge(b.cur, bodies[i+1])
		} else {
			b.edge(b.cur, after)
		}
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
	b.cur = after
}

func endsInFallthrough(body []ast.Stmt) bool {
	// The spec only requires fallthrough to be the final NON-EMPTY
	// statement of its clause, so trailing empty statements are legal Go
	// ("fallthrough;;") and must be walked past — checking body[len-1]
	// alone would drop the fallthrough edge and corrupt the clause graph.
	for i := len(body) - 1; i >= 0; i-- {
		switch s := body[i].(type) {
		case *ast.EmptyStmt:
			continue
		case *ast.BranchStmt:
			return s.Tok == token.FALLTHROUGH
		default:
			return false
		}
	}
	return false
}

func labelName(id *ast.Ident) string {
	if id == nil {
		return ""
	}
	return id.Name
}

// funcBodies returns every function-like body of the package — each
// top-level FuncDecl with a body, and each FuncLit anywhere (including
// inside other FuncLits), innermost last for each declaration.
func funcBodies(files []*ast.File) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				out = append(out, fd.Body)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				out = append(out, lit.Body)
			}
			return true
		})
	}
	return out
}

// inspectLeaf walks one block node without descending into closure bodies,
// which belong to a different CFG.
func inspectLeaf(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}
