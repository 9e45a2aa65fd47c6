// Package balance implements the decomposition baselines the paper
// compares against (Sections 2.0 and 6.0):
//
//   - Equal decomposition — every task gets the same number of PDUs,
//     ignoring processor heterogeneity (the paper's N=1200 comparison).
//   - Dynamic load balancing in the style of the dataparallel C runtime
//     [9] — the partition vector is recomputed periodically from measured
//     per-task rates, paying a migration cost, which also handles load
//     imbalance from processor sharing.
//
// The third baseline, benchmarking-based selection in the style of Reeves
// et al. [1] (probe every candidate configuration by running the
// application on it), is experiments.SelectionCost (E14), which runs the
// probes on the simulator itself.
//
//netpart:deterministic
package balance

import (
	"errors"
	"fmt"
	"sort"

	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/model"
	"netpart/internal/spmd"
	"netpart/internal/topo"
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

// Rebalance computes a new partition vector from measured per-task cycle
// times: each task's share becomes proportional to its observed processing
// rate A_i/t_i (the dataparallel-C strategy). Rounding preserves the total
// and keeps every task at one PDU minimum.
func Rebalance(current core.Vector, measuredMs []float64) (core.Vector, error) {
	if len(current) != len(measuredMs) {
		return nil, fmt.Errorf("balance: %d tasks but %d measurements", len(current), len(measuredMs))
	}
	total := current.Sum()
	rates := make([]float64, len(current))
	sum := 0.0
	for i, t := range measuredMs {
		if t <= 0 {
			return nil, fmt.Errorf("balance: nonpositive measured time %v for task %d", t, i)
		}
		rates[i] = float64(current[i]) / t
		sum += rates[i]
	}
	v := make(core.Vector, len(current))
	type rem struct {
		frac float64
		rank int
	}
	rems := make([]rem, len(current))
	assigned := 0
	for i, r := range rates {
		share := float64(total) * r / sum
		v[i] = int(share)
		assigned += v[i]
		rems[i] = rem{frac: share - float64(v[i]), rank: i}
	}
	sort.SliceStable(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		return rems[a].rank < rems[b].rank
	})
	for i := 0; assigned < total; i = (i + 1) % len(v) {
		v[rems[i].rank]++
		assigned++
	}
	for i := range v {
		for v[i] < 1 {
			hi := 0
			for j := range v {
				if v[j] > v[hi] {
					hi = j
				}
			}
			if v[hi] <= 1 {
				return nil, errors.New("balance: cannot give every task a PDU")
			}
			v[hi]--
			v[i]++
		}
	}
	return v, nil
}

// WorkloadSpec describes a synthetic iterative data parallel workload used
// to compare static and dynamic decomposition under load fluctuation: each
// cycle every task exchanges 1-D borders and computes OpsPerPDU operations
// per held PDU, scaled by a per-(rank, cycle) slowdown (external load).
type WorkloadSpec struct {
	Net *model.Network
	Cfg cost.Config
	// NumPDUs is the data domain size.
	NumPDUs int
	// OpsPerPDU is the per-cycle computation per PDU.
	OpsPerPDU float64
	// Class selects the instruction speed used.
	Class model.OpClass
	// BorderBytes is the per-neighbor message size each cycle.
	BorderBytes int
	// BytesPerPDU is the migration cost of moving one PDU.
	BytesPerPDU int
	// Cycles is the iteration count.
	Cycles int
	// Slowdown multiplies a task's compute time for a given cycle
	// (1 = nominal; models processor sharing). Nil means none.
	Slowdown func(rank, cycle int) float64
	// RebalanceEvery recomputes the partition vector every R cycles from
	// measured times (0 = static).
	RebalanceEvery int
	// Initial is the starting partition vector (length = configured tasks).
	Initial core.Vector
}

// WorkloadResult summarizes a workload run.
type WorkloadResult struct {
	ElapsedMs float64
	// Rebalances counts vector recomputations performed.
	Rebalances int
	// MigratedPDUs counts PDUs that crossed task boundaries.
	MigratedPDUs int
	// Final is the partition vector at the end.
	Final core.Vector
}

// Simulate runs the workload on the simulated network. With
// RebalanceEvery > 0, rank 0 gathers per-task measured cycle times every R
// cycles, recomputes the vector via Rebalance, broadcasts it, and adjacent
// tasks exchange the migrating PDUs (charged at BytesPerPDU each).
func Simulate(spec WorkloadSpec) (WorkloadResult, error) {
	names, counts := spec.Cfg.Active()
	pl, err := topo.Contiguous(names, counts)
	if err != nil {
		return WorkloadResult{}, err
	}
	nTasks := pl.NumTasks()
	if len(spec.Initial) != nTasks {
		return WorkloadResult{}, fmt.Errorf("balance: initial vector has %d entries for %d tasks", len(spec.Initial), nTasks)
	}
	if spec.Initial.Sum() != spec.NumPDUs {
		return WorkloadResult{}, fmt.Errorf("balance: initial vector sums to %d, want %d", spec.Initial.Sum(), spec.NumPDUs)
	}
	res := WorkloadResult{Final: append(core.Vector(nil), spec.Initial...)}
	// shared holds the coordinator's view, mutated only by rank 0 between
	// the gather and broadcast steps (tasks run interleaved but the
	// protocol orders accesses).
	job := spmd.Job{
		Net:       spec.Net,
		Placement: pl,
		Vector:    spec.Initial,
		Topology:  topo.OneD{},
		Body: func(t *spmd.Task) {
			runWorkloadTask(t, &spec, &res)
		},
	}
	rep, err := spmd.Run(job)
	if err != nil {
		return WorkloadResult{}, err
	}
	res.ElapsedMs = rep.ElapsedMs
	return res, nil
}

// runWorkloadTask executes the per-rank workload loop.
func runWorkloadTask(t *spmd.Task, spec *WorkloadSpec, res *WorkloadResult) {
	rank, nTasks := t.Rank(), t.NumTasks()
	pdus := spec.Initial[rank]
	for cycle := 0; cycle < spec.Cycles; cycle++ {
		// Border exchange (synchronous 1-D cycle).
		if nTasks > 1 {
			t.ExchangeBorders(spec.BorderBytes, nil)
		}
		// Compute, with external load fluctuation.
		factor := 1.0
		if spec.Slowdown != nil {
			factor = spec.Slowdown(rank, cycle)
		}
		ops := spec.OpsPerPDU * float64(pdus) * factor
		start := t.NowMs()
		t.Compute(ops, spec.Class)
		measured := t.NowMs() - start

		if spec.RebalanceEvery <= 0 || (cycle+1)%spec.RebalanceEvery != 0 || nTasks == 1 {
			continue
		}
		// Gather measured times at rank 0, rebalance, broadcast both the
		// old and new vectors so every task computes identical boundary
		// flows.
		var oldVec, newVec core.Vector
		if rank == 0 {
			times := make([]float64, nTasks)
			current := make(core.Vector, nTasks)
			times[0], current[0] = measured, pdus
			for src := 1; src < nTasks; src++ {
				m := t.Recv(src).([2]float64)
				times[src] = m[0]
				current[src] = int(m[1])
			}
			v, err := Rebalance(current, times)
			if err != nil {
				v = append(core.Vector(nil), current...) // keep the old split
			} else {
				res.Rebalances++
				for i := range v {
					if d := v[i] - current[i]; d > 0 {
						res.MigratedPDUs += d
					}
				}
			}
			pair := [2]core.Vector{current, v}
			for dst := 1; dst < nTasks; dst++ {
				t.Send(dst, 16*nTasks, pair)
			}
			oldVec, newVec = current, v
		} else {
			t.Send(0, 16, [2]float64{measured, float64(pdus)})
			pair := t.Recv(0).([2]core.Vector)
			oldVec, newVec = pair[0], pair[1]
		}
		// Migrate: PDUs crossing each adjacent boundary move between the
		// neighboring tasks (contiguous 1-D domains shift).
		flows := boundaryFlows(oldVec, newVec)
		if rank > 0 && flows[rank-1] != 0 {
			transferAcross(t, rank-1, rank, flows[rank-1], spec.BytesPerPDU)
		}
		if rank < nTasks-1 && flows[rank] != 0 {
			transferAcross(t, rank, rank+1, flows[rank], spec.BytesPerPDU)
		}
		pdus = newVec[rank]
		if rank == 0 {
			copy(res.Final, newVec)
		}
	}
}

// boundaryFlows returns, for each boundary r (between ranks r and r+1),
// the signed number of PDUs crossing it: positive flows move down (from r
// to r+1).
func boundaryFlows(oldVec, newVec core.Vector) []int {
	n := len(oldVec)
	flows := make([]int, n-1)
	oldPrefix, newPrefix := 0, 0
	for r := 0; r < n-1; r++ {
		oldPrefix += oldVec[r]
		newPrefix += newVec[r]
		flows[r] = oldPrefix - newPrefix
	}
	return flows
}

// transferAcross charges the migration of |flow| PDUs across the boundary
// between ranks lo and lo+1. The task on the sending side transmits; the
// receiver consumes.
func transferAcross(t *spmd.Task, lo, hi, flow, bytesPerPDU int) {
	moved := flow
	if moved < 0 {
		moved = -moved
	}
	bytes := moved * bytesPerPDU
	sender, receiver := lo, hi // flow > 0: rows move down
	if flow < 0 {
		sender, receiver = hi, lo
	}
	switch t.Rank() {
	case sender:
		t.Send(receiver, bytes, nil)
	case receiver:
		t.Recv(sender)
	}
}
