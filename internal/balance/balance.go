// Package balance holds the heterogeneity-blind baseline the paper
// compares against (Sections 2.0 and 6.0): equal decomposition, every
// task getting the same number of PDUs whatever its processor's speed
// (the paper's N=1200 comparison, and ablation A3).
//
// The paper's other two baselines run on the real stencil: dynamic load
// balancing in the style of the dataparallel C runtime [9] is
// stencil.Options.RebalanceEvery, the repart engine recomputing the
// vector from measured per-rank times and migrating rows (E9), and
// benchmarking-based selection in the style of Reeves et al. [1] is
// experiments.SelectionCost (E14).
//
//netpart:deterministic
package balance

import (
	"errors"
	"fmt"

	"netpart/internal/core"
)

// EqualVector splits numPDUs evenly over tasks (remainder to the lowest
// ranks), the heterogeneity-blind baseline.
func EqualVector(numPDUs, tasks int) (core.Vector, error) {
	if tasks <= 0 {
		return nil, errors.New("balance: no tasks")
	}
	if numPDUs < tasks {
		return nil, fmt.Errorf("balance: %d PDUs over %d tasks", numPDUs, tasks)
	}
	v := make(core.Vector, tasks)
	base, rem := numPDUs/tasks, numPDUs%tasks
	for i := range v {
		v[i] = base
		if i < rem {
			v[i]++
		}
	}
	return v, nil
}
