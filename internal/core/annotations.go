// Package core implements the paper's primary contribution: the runtime
// partitioning method of Sections 4.0 and 5.0. Given a heterogeneous
// network model, a table of benchmarked communication cost functions, and
// program annotations supplied as callback functions, it chooses the number
// and type of processors to apply to a data parallel computation and a
// load-balanced decomposition of the data domain (the partition vector) so
// as to minimize estimated per-cycle elapsed time.
//
//netpart:deterministic
package core

import (
	"errors"
	"fmt"
	"slices"

	"netpart/internal/model"
	"netpart/internal/topo"
)

// ComputationPhase annotates one computation phase of the SPMD cycle
// (Section 4.0): how many operations each PDU costs per cycle.
type ComputationPhase struct {
	// Name identifies the phase (used by Overlap annotations).
	Name string
	// ComplexityPerPDU is the computational-complexity callback: the number
	// of operations executed per PDU in one cycle. It may close over
	// problem parameters such as the problem size N (5N for the paper's
	// stencil). Installed callbacks must be pure arithmetic — the estimator
	// invokes them on its zero-allocation hot path.
	//netpart:purecallback
	ComplexityPerPDU func() float64
	// TotalOps optionally replaces the linear form S·complexity·A of Eq. 4
	// for computations whose per-task cost is not linear in the number of
	// PDUs held (the paper's Gaussian-elimination case). Given a PDU count
	// it returns the operations per cycle. Nil means linear. Installed
	// callbacks must be pure arithmetic (see ComplexityPerPDU).
	//netpart:purecallback
	TotalOps func(pdus float64) float64
	// Class selects which instruction speed (integer or floating point) the
	// cluster manager's S_i refers to for this phase.
	Class model.OpClass
}

// Ops returns the operations one task holding pdus PDUs executes per cycle.
func (cp *ComputationPhase) Ops(pdus float64) float64 {
	if cp.TotalOps != nil {
		return cp.TotalOps(pdus)
	}
	return cp.ComplexityPerPDU() * pdus
}

// CommunicationPhase annotates one communication phase (Section 4.0).
type CommunicationPhase struct {
	// Name identifies the phase.
	Name string
	// Topology is the canonical name of the communication pattern
	// (topo.ByName must resolve it): "1-D", "ring", "2-D", "tree",
	// "broadcast", or "all-to-all".
	Topology string
	// BytesPerMessage is the communication-complexity callback: the number
	// of bytes transmitted to each neighbor in one cycle. It receives the
	// PDU count of the sending task because message size may depend on the
	// assignment (for the paper's stencil it is the constant 4N). Installed
	// callbacks must be pure arithmetic (see ComplexityPerPDU).
	//netpart:purecallback
	BytesPerMessage func(pdus float64) float64
	// Overlap names the computation phase this communication is overlapped
	// with, or is empty for no overlap (STEN-1 vs STEN-2).
	Overlap string
}

// Annotations carries the full program description the partitioning
// algorithm needs, implemented as callbacks invoked at runtime.
type Annotations struct {
	// Name identifies the program (for reports).
	Name string
	// NumPDUs is the number-of-PDUs callback (N rows for the stencil).
	// Installed callbacks must be pure arithmetic (see
	// ComputationPhase.ComplexityPerPDU).
	//netpart:purecallback
	NumPDUs func() int
	// Compute and Comm list the phases of one cycle.
	Compute []ComputationPhase
	Comm    []CommunicationPhase
	// Cycles is the expected iteration count I, used to extrapolate
	// T_elapsed = I·T_c (+ startup). Zero means unknown.
	Cycles int
	// StartupBytesPerPDU is the initial-distribution size of one PDU in
	// bytes (e.g. 4N for a row of 4-byte grid points). When nonzero the
	// estimator also reports T_startup, the cost of scattering the data
	// domain from the first processor; the paper assumes this is amortized
	// (T_startup ≪ I·T_c) and the estimate lets callers check that
	// assumption. Zero disables startup modeling.
	StartupBytesPerPDU float64
}

// Annotation validation errors.
var (
	ErrNoComputePhase = errors.New("core: annotations need at least one computation phase")
	ErrNoNumPDUs      = errors.New("core: annotations need a NumPDUs callback")
	ErrBadOverlap     = errors.New("core: overlap names unknown computation phase")
)

// Validate checks structural completeness of the annotations.
func (a *Annotations) Validate() error {
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
	for i := range a.Compute {
		cp := &a.Compute[i]
		if cp.ComplexityPerPDU == nil && cp.TotalOps == nil {
			return fmt.Errorf("core: computation phase %q has no complexity callback", cp.Name)
		}
		if cp.ComplexityPerPDU == nil {
			return fmt.Errorf("core: computation phase %q needs ComplexityPerPDU (used for dominance)", cp.Name)
		}
	}
	for i := range a.Comm {
		cm := &a.Comm[i]
		if cm.BytesPerMessage == nil {
			return fmt.Errorf("core: communication phase %q has no complexity callback", cm.Name)
		}
		if _, err := topo.ByName(cm.Topology); err != nil {
			return fmt.Errorf("core: communication phase %q: %w", cm.Name, err)
		}
		if cm.Overlap != "" && !slices.ContainsFunc(a.Compute, func(cp ComputationPhase) bool { return cp.Name == cm.Overlap }) {
			return fmt.Errorf("%w: phase %q overlaps %q", ErrBadOverlap, cm.Name, cm.Overlap)
		}
	}
	return nil
}

// DominantCompute returns the computation phase with the largest
// computational complexity (Section 4.0), or nil if there are none.
func (a *Annotations) DominantCompute() *ComputationPhase {
	var best *ComputationPhase
	bestC := -1.0
	for i := range a.Compute {
		if c := a.Compute[i].ComplexityPerPDU(); c > bestC {
			bestC = c
			best = &a.Compute[i]
		}
	}
	return best
}

// DominantComm returns the communication phase with the largest
// communication complexity, or nil if there are none. Dominance is judged
// at the whole-domain PDU count (a single-task assignment), the upper bound
// of any task's assignment.
func (a *Annotations) DominantComm() *CommunicationPhase {
	var best *CommunicationPhase
	bestB := -1.0
	pdus := float64(a.NumPDUs())
	for i := range a.Comm {
		if b := a.Comm[i].BytesPerMessage(pdus); b > bestB {
			bestB = b
			best = &a.Comm[i]
		}
	}
	return best
}
