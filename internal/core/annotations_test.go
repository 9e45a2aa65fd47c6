package core

import (
	"errors"
	"fmt"
	"testing"

	"netpart/internal/model"
	"netpart/internal/topo"
)

// oracleAnnotationsValidate is the map-based Annotations.Validate that the
// scanning one replaced, kept as a test-only oracle.
func oracleAnnotationsValidate(a *Annotations) error {
	if a.NumPDUs == nil {
		return ErrNoNumPDUs
	}
	if n := a.NumPDUs(); n < 1 {
		return fmt.Errorf("core: annotations %q describe %d PDUs; the problem needs at least one", a.Name, n)
	}
	if a.Cycles < 0 {
		return fmt.Errorf("core: annotations %q expect %d cycles; Cycles is 0 (unknown) or more", a.Name, a.Cycles)
	}
	if len(a.Compute) == 0 {
		return ErrNoComputePhase
	}
	names := make(map[string]bool, len(a.Compute))
	for i := range a.Compute {
		cp := &a.Compute[i]
		if cp.ComplexityPerPDU == nil && cp.TotalOps == nil {
			return fmt.Errorf("core: computation phase %q has no complexity callback", cp.Name)
		}
		if cp.ComplexityPerPDU == nil {
			return fmt.Errorf("core: computation phase %q needs ComplexityPerPDU (used for dominance)", cp.Name)
		}
		names[cp.Name] = true
	}
	for i := range a.Comm {
		cm := &a.Comm[i]
		if cm.BytesPerMessage == nil {
			return fmt.Errorf("core: communication phase %q has no complexity callback", cm.Name)
		}
		if _, err := topo.ByName(cm.Topology); err != nil {
			return fmt.Errorf("core: communication phase %q: %w", cm.Name, err)
		}
		if cm.Overlap != "" && !names[cm.Overlap] {
			return fmt.Errorf("%w: phase %q overlaps %q", ErrBadOverlap, cm.Name, cm.Overlap)
		}
	}
	return nil
}

// twoPhaseAnnotations has two computation and two communication phases,
// the second communication phase overlapping the second computation.
func twoPhaseAnnotations() *Annotations {
	a := stencilAnnotations(600, true)
	a.Compute = append(a.Compute, ComputationPhase{
		Name: "residual", ComplexityPerPDU: func() float64 { return 600 }, Class: model.OpFloat,
	})
	a.Comm = append(a.Comm, CommunicationPhase{
		Name: "reduce", Topology: "tree", BytesPerMessage: func(float64) float64 { return 8 }, Overlap: "residual",
	})
	return a
}

// TestAnnotationsValidateMatchesOracle runs one defect per error path and
// every ordered pair of them against the oracle: the same sentinel and the
// same message.
func TestAnnotationsValidateMatchesOracle(t *testing.T) {
	defects := []struct {
		name string
		mut  func(a *Annotations)
	}{
		{"no NumPDUs", func(a *Annotations) { a.NumPDUs = nil }},
		{"no PDUs", func(a *Annotations) { a.NumPDUs = func() int { return 0 } }},
		{"negative cycles", func(a *Annotations) { a.Cycles = -3 }},
		{"no compute phase", func(a *Annotations) { a.Compute = nil }},
		{"no complexity", func(a *Annotations) { a.Compute[1].ComplexityPerPDU = nil }},
		{"TotalOps only", func(a *Annotations) {
			a.Compute[0].ComplexityPerPDU, a.Compute[0].TotalOps = nil, func(p float64) float64 { return p }
		}},
		{"no message size", func(a *Annotations) { a.Comm[1].BytesPerMessage = nil }},
		{"unknown topology", func(a *Annotations) { a.Comm[0].Topology = "starcube" }},
		{"unknown overlap", func(a *Annotations) { a.Comm[1].Overlap = "nonexistent" }},
		{"overlap names a comm phase", func(a *Annotations) { a.Comm[0].Overlap = a.Comm[1].Name }},
		{"overlap names the last compute phase", func(a *Annotations) { a.Comm[0].Overlap = a.Compute[1].Name }},
		{"duplicate compute names", func(a *Annotations) { a.Compute[1].Name = a.Compute[0].Name }},
		{"no overlap", func(a *Annotations) { a.Comm[1].Overlap = "" }},
		{"no comm phase", func(a *Annotations) { a.Comm = nil }},
	}
	same := func(name string, a *Annotations) {
		t.Helper()
		got, want := a.Validate(), oracleAnnotationsValidate(a)
		if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
			t.Fatalf("%s: Validate = %v, oracle = %v", name, got, want)
		}
		for _, s := range []error{ErrNoNumPDUs, ErrNoComputePhase, ErrBadOverlap} {
			if errors.Is(got, s) != errors.Is(want, s) {
				t.Fatalf("%s: Validate = %v, oracle = %v: disagree on %v", name, got, want, s)
			}
		}
	}
	same("clean", twoPhaseAnnotations())
	for _, d := range defects {
		a := twoPhaseAnnotations()
		d.mut(a)
		same(d.name, a)
	}
	for _, x := range defects {
		for _, y := range defects {
			a := twoPhaseAnnotations()
			if x.name != y.name && applyBoth(a, x.mut, y.mut) {
				same(x.name+" + "+y.name, a)
			}
		}
	}
	for _, name := range topo.Names() {
		a := twoPhaseAnnotations()
		a.Comm[1].Topology = name
		same("topology "+name, a)
	}
}

// applyBoth applies two defects in order, reporting false when the second
// indexes a phase the first removed.
func applyBoth(a *Annotations, x, y func(*Annotations)) (ok bool) {
	defer func() { ok = recover() == nil }()
	x(a)
	y(a)
	return true
}
