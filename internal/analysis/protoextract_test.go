package analysis_test

import (
	"go/ast"
	"testing"

	"netpart/internal/analysis"
	"netpart/internal/analysis/protomc"
)

// TestExtractRealProtocols extracts every //netpart:lockstep protocol of
// the committed tree and pins the inventory: the cycle driver's halo
// exchange, the converge reduction and the repartitioning round extract
// symbolically, the row migration and FT recovery barrier route to builtin
// models, nothing is unextractable, and only the halo exchange declares
// sem=buffered.
func TestExtractRealProtocols(t *testing.T) {
	pkgs, ip := loadModule(t)
	protos, diags, err := analysis.ExtractProtos(pkgs, ip)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected extraction diagnostic: %s", d)
	}
	byName := map[string]*analysis.LockstepProto{}
	models := map[string]bool{}
	for _, lp := range protos {
		if lp.Model != "" {
			models[lp.Model] = true
			if lp.Buffered {
				t.Errorf("%s declares sem=buffered; only the halo exchange may", lp.Fn)
			}
			continue
		}
		byName[lp.Proto.Name] = lp
	}
	for _, want := range []string{"stencil.cycles", "stencil.reduceMax", "repart.Round"} {
		if byName[want] == nil {
			t.Fatalf("protocol %s not extracted; got %v (models %v)", want, keys(byName), models)
		}
		if got := byName[want].Buffered; got != (want == "stencil.cycles") {
			t.Errorf("%s: declared buffered = %v", want, got)
		}
	}
	for _, want := range []string{"migration", "ft-recovery"} {
		if !models[want] {
			t.Errorf("builtin model %s not declared by any //netpart:lockstep model= directive", want)
		}
	}
}

func keys(m map[string]*analysis.LockstepProto) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// extractOne extracts a single named protocol from the committed tree.
func extractOne(t *testing.T, name string) *protomc.Proto {
	t.Helper()
	pkgs, ip := loadModule(t)
	protos, diags, err := analysis.ExtractProtos(pkgs, ip)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected extraction diagnostic: %s", d)
	}
	for _, lp := range protos {
		if lp.Proto != nil && lp.Proto.Name == name {
			return lp.Proto
		}
	}
	t.Fatalf("protocol %s not found", name)
	return nil
}

// TestRepartRoundProtocol checks the extracted gather/broadcast round is
// deadlock-free and message-conserving at every bounded P under both
// transport semantics. The round has no data-dependent unknowns: its loop
// bounds are affine in P and its only branch is the rank-0 hub split.
func TestRepartRoundProtocol(t *testing.T) {
	proto := extractOne(t, "repart.Round")
	if len(proto.Params) != 0 {
		t.Fatalf("repart.Round extracted %d shared parameters, want 0: %+v", len(proto.Params), proto.Params)
	}
	for p := 2; p <= 5; p++ {
		sys, err := protomc.Instantiate(proto, p)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		for _, sem := range []protomc.Semantics{protomc.Rendezvous, protomc.Buffered} {
			res, err := protomc.Check(sys, protomc.Config{Sem: sem})
			if err != nil {
				t.Fatalf("P=%d %s: %v", p, sem, err)
			}
			if !res.OK() {
				t.Errorf("P=%d %s: %s: %s", p, sem, res.Violation.Kind, res.Violation.Detail)
			}
		}
	}
}

// TestHaloExchangeProtocol checks the extracted cycle-driver exchange — the
// paper's order: both borders out, then both ghosts in — across every
// assignment of its shared parameters (iteration count, variant). Under
// buffered semantics it must be deadlock-free and message-conserving at
// every bounded P with capacity 1 and never more than one message in flight
// per channel: that is the contract its sem=buffered directive declares.
// Under rendezvous it must deadlock as soon as one cycle runs — the
// directive is a statement about the protocol, not a way to hide a result.
func TestHaloExchangeProtocol(t *testing.T) {
	proto := extractOne(t, "stencil.cycles")
	if len(proto.Params) != 2 {
		t.Fatalf("cycles extracted %d shared parameters, want 2 (trip count, variant): %+v",
			len(proto.Params), proto.Params)
	}
	for p := 2; p <= 5; p++ {
		systems, err := protomc.InstantiateAll(proto, p)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if len(systems) != 6 {
			t.Fatalf("P=%d: %d parameter assignments, want 6 (3 trip counts x 2 variants)", p, len(systems))
		}
		deadlocks := 0
		for _, sys := range systems {
			res, err := protomc.Check(sys, protomc.Config{Sem: protomc.Buffered, Capacity: 1})
			if err != nil {
				t.Fatalf("P=%d buffered [%s]: %v", p, sys.Assign, err)
			}
			if !res.OK() {
				t.Errorf("P=%d buffered [%s]: %s: %s\nschedule: %v",
					p, sys.Assign, res.Violation.Kind, res.Violation.Detail, res.Violation.Steps)
			}
			if res.MaxInFlight > 1 {
				t.Errorf("P=%d buffered [%s]: %d messages in flight on one channel, want at most 1", p, sys.Assign, res.MaxInFlight)
			}
			res, err = protomc.Check(sys, protomc.Config{Sem: protomc.Rendezvous})
			if err != nil {
				t.Fatalf("P=%d rendezvous [%s]: %v", p, sys.Assign, err)
			}
			if !res.OK() && res.Violation.Kind == "deadlock" {
				deadlocks++
			}
		}
		// Zero trips exchange nothing; every assignment that runs a cycle
		// (2 trip counts x 2 variants) is a send-send cycle.
		if deadlocks != 4 {
			t.Errorf("P=%d rendezvous: %d of 6 assignments deadlock, want 4", p, deadlocks)
		}
	}
}

// TestOddEvenExchangeExtracts keeps the parity-ordered pairwise exchange —
// the order a rendezvous transport would need, which the live runtime used
// before it returned to the paper's — covered as a source fixture: rank%2
// tests must extract to GMod guards, and the protocol they order is clean
// under both semantics.
func TestOddEvenExchangeExtracts(t *testing.T) {
	pkg, file := checkSource(`package p
type tr struct{ r, n int }
func (t *tr) Rank() int { return t.r }
func (t *tr) Size() int { return t.n }
func (t *tr) Send(dst int, b []byte) error { return nil }
func (t *tr) Recv(src int) ([]byte, error) { return nil, nil }
func exchange(t *tr, iters int) {
	rank := t.Rank()
	north, south := rank-1, rank+1
	hasNorth, hasSouth := north >= 0, south < t.Size()
	for it := 0; it < iters; it++ {
		for phase := 0; phase < 2; phase++ {
			if rank%2 == phase && hasSouth {
				t.Send(south, nil)
				t.Recv(south)
			}
			if rank%2 != phase && hasNorth {
				t.Recv(north)
				t.Send(north, nil)
			}
		}
	}
}`)
	if pkg == nil {
		t.Fatal("fixture does not typecheck")
	}
	var proto *protomc.Proto
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == "exchange" {
			var err error
			if proto, err = analysis.ExtractProto(pkg, nil, fd); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !hasModGuard(proto.Ops) {
		t.Errorf("expected a rank%%2 parity guard in the extracted protocol")
	}
	for p := 2; p <= 5; p++ {
		systems, err := protomc.InstantiateAll(proto, p)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		for _, sys := range systems {
			for _, sem := range []protomc.Semantics{protomc.Rendezvous, protomc.Buffered} {
				res, err := protomc.Check(sys, protomc.Config{Sem: sem})
				if err != nil {
					t.Fatalf("P=%d %s [%s]: %v", p, sem, sys.Assign, err)
				}
				if !res.OK() {
					t.Errorf("P=%d %s [%s]: %s: %s", p, sem, sys.Assign, res.Violation.Kind, res.Violation.Detail)
				}
			}
		}
	}
}

// hasModGuard walks the op tree for a GMod parity guard.
func hasModGuard(ops []protomc.Op) bool {
	var guardHasMod func(g protomc.Guard) bool
	guardHasMod = func(g protomc.Guard) bool {
		if g.Kind == protomc.GMod {
			return true
		}
		for _, s := range g.Subs {
			if guardHasMod(s) {
				return true
			}
		}
		return false
	}
	for _, op := range ops {
		if op.Kind == protomc.OpIf && guardHasMod(op.Cond) {
			return true
		}
		if hasModGuard(op.Then) || hasModGuard(op.Else) || hasModGuard(op.Body) {
			return true
		}
	}
	return false
}
