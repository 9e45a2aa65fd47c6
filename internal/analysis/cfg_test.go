package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"netpart/internal/analysis"
)

// buildCFG parses a single-function source fragment and builds its CFG.
// Parser-only: CFG construction must not require type information.
func buildCFG(t *testing.T, src string) *analysis.CFG {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", "package p\n"+src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fd := f.Decls[len(f.Decls)-1].(*ast.FuncDecl)
	return analysis.BuildCFG(fd.Body)
}

// shape is the golden summary of one CFG: enough to pin the builder's
// translation of a construct without enumerating every block.
type shape struct {
	blocks    int // total blocks, including synthetic and dead ones
	edges     int // total directed edges
	reachable int // blocks reachable from the entry
	defers    int // registered defer sites
	exitPreds int // distinct ways control reaches the exit block
}

func summarize(g *analysis.CFG) shape {
	live := 0
	for _, ok := range g.Reachable() {
		if ok {
			live++
		}
	}
	return shape{
		blocks:    len(g.Blocks),
		edges:     g.NumEdges(),
		reachable: live,
		defers:    len(g.Defers),
		exitPreds: len(g.Exit.Preds),
	}
}

// TestCFGLabeledBreakContinue: break outer must edge past BOTH loops and
// continue outer must edge to the outer range head — getting either wrong
// silently corrupts every flow-sensitive analyzer's loop state.
func TestCFGLabeledBreakContinue(t *testing.T) {
	g := buildCFG(t, `
func f(m [][]int) int {
	sum := 0
outer:
	for _, row := range m {
		for _, v := range row {
			if v < 0 {
				break outer
			}
			if v == 0 {
				continue outer
			}
			sum += v
		}
	}
	return sum
}`)
	want := shape{blocks: 16, edges: 19, reachable: 13, defers: 0, exitPreds: 2}
	if got := summarize(g); got != want {
		t.Errorf("shape = %+v, want %+v", got, want)
	}
	// Both range heads must be registered so analyzers can revive the loop
	// variables per iteration, and the outer head gets the continue edge on
	// top of its entry and back edges.
	if len(g.Ranges) != 2 {
		t.Fatalf("len(Ranges) = %d, want 2", len(g.Ranges))
	}
	maxHeadPreds := 0
	for head := range g.Ranges {
		if len(head.Preds) > maxHeadPreds {
			maxHeadPreds = len(head.Preds)
		}
	}
	if maxHeadPreds < 3 {
		t.Errorf("outer range head has %d preds, want >= 3 (entry, back edge, continue outer)", maxHeadPreds)
	}
}

// TestCFGGoto: a backward goto forms a loop; the labeled block must have
// both the fall-through and the goto edge, and the statements after the
// dead block a goto leaves behind stay reachable through the label.
func TestCFGGoto(t *testing.T) {
	g := buildCFG(t, `
func f() int {
	n := 0
retry:
	n++
	if n < 3 {
		goto retry
	}
	return n
}`)
	want := shape{blocks: 7, edges: 7, reachable: 5, defers: 0, exitPreds: 2}
	if got := summarize(g); got != want {
		t.Errorf("shape = %+v, want %+v", got, want)
	}
	// The label target is the one non-entry block with two or more live
	// preds (fall-through from the entry plus the goto back edge); dead
	// blocks left behind by the goto do not count.
	reach := g.Reachable()
	looped := 0
	for _, b := range g.Blocks {
		if b == g.Entry || b == g.Exit {
			continue
		}
		livePreds := 0
		for _, p := range b.Preds {
			if reach[p.Index] {
				livePreds++
			}
		}
		if livePreds >= 2 {
			looped++
		}
	}
	if looped != 1 {
		t.Errorf("found %d join blocks, want exactly 1 (the retry label)", looped)
	}
}

// TestCFGSelectDefault: each clause of a select with a default, the
// default included, gets its own block, and a return inside one clause
// edges straight to exit.
func TestCFGSelectDefault(t *testing.T) {
	g := buildCFG(t, `
func f(ch chan int) int {
	select {
	case v := <-ch:
		return v
	case ch <- 1:
	default:
	}
	return 0
}`)
	want := shape{blocks: 8, edges: 9, reachable: 6, defers: 0, exitPreds: 3}
	if got := summarize(g); got != want {
		t.Errorf("shape = %+v, want %+v", got, want)
	}
}

// TestCFGLabeledBreakOutOfSelect: `break loop` inside a select nested in
// a labeled for must edge to the FOR's after block, not the select's join.
// The for has no condition, so the after block — and with it the trailing
// return — is reachable ONLY through that labeled break: if the builder
// resolved the label against the select scope, exit would go dead.
func TestCFGLabeledBreakOutOfSelect(t *testing.T) {
	g := buildCFG(t, `
func f(ch chan int, done chan struct{}) int {
	n := 0
loop:
	for {
		select {
		case v := <-ch:
			n += v
		case <-done:
			break loop
		}
	}
	return n
}`)
	// exitPreds counts the dead fall-off-the-end block too; only one pred
	// is live (checked below).
	want := shape{blocks: 12, edges: 12, reachable: 10, defers: 0, exitPreds: 2}
	if got := summarize(g); got != want {
		t.Errorf("shape = %+v, want %+v", got, want)
	}
	reach := g.Reachable()
	liveExit := 0
	for _, p := range g.Exit.Preds {
		if reach[p.Index] {
			liveExit++
		}
	}
	if liveExit != 1 {
		t.Errorf("exit has %d live preds, want 1 (return n via break loop)", liveExit)
	}
}

// TestCFGFallthroughTrailingEmpty: fallthrough need only be the final
// NON-EMPTY statement of its clause, so a trailing empty statement
// ("fallthrough;;") is legal Go and the fallthrough edge to the next
// clause must survive it.
func TestCFGFallthroughTrailingEmpty(t *testing.T) {
	src := `
func f(x int) int {
	n := 0
	switch x {
	case 0:
		n = 1
		fallthrough;;
	case 1:
		n += 2
	}
	return n
}`
	// Guard the premise: the clause body must actually end in an
	// *ast.EmptyStmt, otherwise this test degenerates into the plain
	// fallthrough case and proves nothing.
	{
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "x.go", "package p\n"+src, 0)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		sawEmpty := false
		ast.Inspect(f, func(n ast.Node) bool {
			if cc, ok := n.(*ast.CaseClause); ok && len(cc.Body) > 0 {
				if _, ok := cc.Body[len(cc.Body)-1].(*ast.EmptyStmt); ok {
					sawEmpty = true
				}
			}
			return true
		})
		if !sawEmpty {
			t.Fatal("fixture lost its trailing empty statement")
		}
	}
	g := buildCFG(t, src)
	// Reconstruct the clause bodies: the case-0 block must edge into the
	// case-1 block (fallthrough), never straight to the join.
	var from, to *analysis.Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN {
				from = b
			}
			if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.ADD_ASSIGN {
				to = b
			}
		}
	}
	if from == nil || to == nil {
		t.Fatal("could not locate the two clause bodies")
	}
	linked := false
	for _, s := range from.Succs {
		if s == to {
			linked = true
		}
	}
	if !linked {
		t.Error("fallthrough followed by an empty statement lost its edge to the next clause")
	}
}

// TestCFGDeferInLoop: the defer site registers once (Defers records
// registration points, not dynamic executions) and stays inside the loop
// body block so the dataflow replay can see it run per iteration.
func TestCFGDeferInLoop(t *testing.T) {
	g := buildCFG(t, `
func f(files []string) {
	for _, name := range files {
		defer println(name)
	}
}`)
	want := shape{blocks: 5, edges: 5, reachable: 5, defers: 1, exitPreds: 1}
	if got := summarize(g); got != want {
		t.Errorf("shape = %+v, want %+v", got, want)
	}
	inBody := false
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.DeferStmt); ok {
				inBody = true
			}
		}
	}
	if !inBody {
		t.Error("DeferStmt node missing from the loop body block")
	}
}

// TestCFGGotoIntoLoopBody: a goto whose label sits INSIDE a for body jumps
// within the current iteration, bypassing the post statement and the
// condition. The label block must collect both the iteration fall-through
// and the goto edge, while the loop head keeps its own back edge — a
// builder that resolves the label against the function scope would wire
// the goto to a fresh dead block and sever the in-iteration cycle.
func TestCFGGotoIntoLoopBody(t *testing.T) {
	g := buildCFG(t, `
func f(xs []int) int {
	n := 0
	for i := 0; i < len(xs); i++ {
	inner:
		n += xs[i]
		if n < 0 {
			goto inner
		}
	}
	return n
}`)
	want := shape{blocks: 11, edges: 12, reachable: 9, defers: 0, exitPreds: 2}
	if got := summarize(g); got != want {
		t.Errorf("shape = %+v, want %+v", got, want)
	}
	// The label target is a join: fall-through into the iteration plus the
	// goto edge. Find the block holding the += node and count live preds.
	reach := g.Reachable()
	var label *analysis.Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.ADD_ASSIGN {
				label = b
			}
		}
	}
	if label == nil {
		t.Fatal("could not locate the labeled block")
	}
	livePreds := 0
	for _, p := range label.Preds {
		if reach[p.Index] {
			livePreds++
		}
	}
	if livePreds < 2 {
		t.Errorf("label block has %d live preds, want >= 2 (iteration entry + goto)", livePreds)
	}
}

// TestCFGNestedSelectInnerDefault: a select with a default nested in a
// clause of one without: both get a block per clause, and the inner
// clauses join inside the outer clause's body.
func TestCFGNestedSelectInnerDefault(t *testing.T) {
	g := buildCFG(t, `
func f(a, b chan int) int {
	select {
	case v := <-a:
		select {
		case w := <-b:
			return v + w
		default:
		}
		return v
	case a <- 1:
	}
	return 0
}`)
	want := shape{blocks: 11, edges: 12, reachable: 8, defers: 0, exitPreds: 4}
	if got := summarize(g); got != want {
		t.Errorf("shape = %+v, want %+v", got, want)
	}
}
