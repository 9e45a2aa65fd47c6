// Package gauss implements distributed Gaussian elimination with partial
// pivoting, the application Section 6.0 cites as having non-uniform
// computational and communication complexity. The matrix is row-decomposed
// (the PDU is a row, assigned contiguously by the partition vector); each
// elimination step runs a root-coordinated broadcast cycle: tasks send
// their local pivot candidates to the root, the root selects the global
// pivot and broadcasts the pivot row (and the displaced row k) to everyone,
// and all tasks eliminate their still-active rows.
//
// The per-cycle work shrinks as elimination proceeds — the non-uniformity
// the paper contrasts with the stencil — and the communication pattern is
// the bandwidth-limited broadcast topology, so the partitioning method
// chooses far fewer processors for this application than for the stencil.
package gauss

import (
	"errors"
	"fmt"
	"math"

	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/model"
	"netpart/internal/spmd"
	"netpart/internal/topo"
)

// Annotations returns the callback annotations for an n×n elimination.
// The dominant computation phase charges the average per-row elimination
// work of one step (≈ n flops per owned row, since about half the rows are
// active with ~2n flops each); the dominant communication phase is the
// broadcast of candidate and pivot rows, ≈ 8·(n+2) bytes per message.
func Annotations(n int) *core.Annotations {
	return &core.Annotations{
		Name:    "gauss",
		NumPDUs: func() int { return n },
		Compute: []core.ComputationPhase{{
			Name:             "eliminate",
			ComplexityPerPDU: func() float64 { return float64(n) },
			Class:            model.OpFloat,
		}},
		Comm: []core.CommunicationPhase{{
			Name:            "pivot-broadcast",
			Topology:        "broadcast",
			BytesPerMessage: func(float64) float64 { return 8 * float64(n+2) },
		}},
		Cycles: n,
	}
}

// System is a dense linear system Ax = b.
type System struct {
	A [][]float64
	B []float64
}

// NewSystem generates a deterministic, well-conditioned (diagonally
// dominant) n×n system using a simple linear congruential generator seeded
// by seed.
func NewSystem(n int, seed uint64) System {
	lcg := seed*2862933555777941757 + 3037000493
	next := func() float64 {
		lcg = lcg*2862933555777941757 + 3037000493
		return float64(lcg>>11) / float64(1<<53) // [0,1)
	}
	a := make([][]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		rowSum := 0.0
		for j := range a[i] {
			a[i][j] = next()*2 - 1
			rowSum += math.Abs(a[i][j])
		}
		a[i][i] += rowSum + 1 // diagonal dominance
		b[i] = next()*2 - 1
	}
	return System{A: a, B: b}
}

// clone deep-copies the system.
func (s System) clone() System {
	a := make([][]float64, len(s.A))
	for i := range s.A {
		a[i] = append([]float64(nil), s.A[i]...)
	}
	return System{A: a, B: append([]float64(nil), s.B...)}
}

// ErrSingular reports a (numerically) singular matrix.
var ErrSingular = errors.New("gauss: singular matrix")

// Sequential solves Ax = b by Gaussian elimination with partial pivoting.
// It is the correctness reference for the distributed implementation.
func Sequential(s System) ([]float64, error) {
	w := s.clone()
	n := len(w.A)
	for k := 0; k < n; k++ {
		// Partial pivoting: the largest |A[i][k]| for i ≥ k.
		p := k
		for i := k + 1; i < n; i++ {
			if math.Abs(w.A[i][k]) > math.Abs(w.A[p][k]) {
				p = i
			}
		}
		if math.Abs(w.A[p][k]) < 1e-12 {
			return nil, ErrSingular
		}
		w.A[k], w.A[p] = w.A[p], w.A[k]
		w.B[k], w.B[p] = w.B[p], w.B[k]
		for i := k + 1; i < n; i++ {
			f := w.A[i][k] / w.A[k][k]
			if f == 0 {
				continue
			}
			w.A[i][k] = 0
			for j := k + 1; j < n; j++ {
				w.A[i][j] -= f * w.A[k][j]
			}
			w.B[i] -= f * w.B[k]
		}
	}
	return backSubstitute(w.A, w.B), nil
}

// backSubstitute solves the upper-triangular system in place.
func backSubstitute(a [][]float64, b []float64) []float64 {
	n := len(a)
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for j := i + 1; j < n; j++ {
			sum -= a[i][j] * x[j]
		}
		x[i] = sum / a[i][i]
	}
	return x
}

// Residual returns max_i |A·x - b|_i for the original system.
func Residual(s System, x []float64) float64 {
	worst := 0.0
	for i := range s.A {
		sum := -s.B[i]
		for j := range s.A[i] {
			sum += s.A[i][j] * x[j]
		}
		if r := math.Abs(sum); r > worst {
			worst = r
		}
	}
	return worst
}

// candidate is a local pivot candidate: the absolute value and global index
// of the best pivot row a task owns at step k, plus the row contents (and
// the task's copy of global row k, if it owns it, for the swap).
type candidate struct {
	absVal float64
	row    int       // global index, -1 if the task has no active rows
	data   []float64 // the candidate row (n values + rhs)
	rowK   []float64 // contents of global row k if owned, else nil
}

// pivotMsg is the root's broadcast: the chosen pivot row and the displaced
// row k contents.
type pivotMsg struct {
	pivotRow int
	pivot    []float64 // n values + rhs (already swapped into position k)
	oldK     []float64 // previous contents of row k (n values + rhs)
}

// SimResult is the outcome of a simulated distributed solve.
type SimResult struct {
	ElapsedMs float64
	X         []float64
	Report    spmd.Report
}

// candidateBytes is the charged wire size of one candidate or pivot row
// message (8-byte values, row + rhs + indices).
func candidateBytes(n int) int { return 8 * (n + 2) }

// ContiguousAssignment maps the partition vector to block ownership:
// rank r owns the vec[r] consecutive rows after rank r-1's.
func ContiguousAssignment(vec core.Vector) [][]int {
	out := make([][]int, len(vec))
	g := 0
	for r, a := range vec {
		for i := 0; i < a; i++ {
			out[r] = append(out[r], g)
			g++
		}
	}
	return out
}

// RunSim solves the system on the simulated network with the given
// configuration and partition vector, using the contiguous block
// assignment. Rank 0 acts as the broadcast root (the paper's task
// placement puts it on the fastest cluster).
func RunSim(net *model.Network, cfg cost.Config, vec core.Vector, s System) (SimResult, error) {
	return RunSimAssigned(net, cfg, vec, ContiguousAssignment(vec), s)
}

// RunSimAssigned solves with an explicit row-ownership assignment:
// assignment[rank] lists the global rows rank owns, ascending. Any
// assignment covering each row exactly once yields a result bit-identical
// to Sequential.
func RunSimAssigned(net *model.Network, cfg cost.Config, vec core.Vector, assignment [][]int, s System) (SimResult, error) {
	n := len(s.A)
	if vec.Sum() != n {
		return SimResult{}, fmt.Errorf("gauss: vector sums to %d, want %d rows", vec.Sum(), n)
	}
	names, counts := cfg.Active()
	pl, err := topo.Contiguous(names, counts)
	if err != nil {
		return SimResult{}, err
	}
	if pl.NumTasks() != len(vec) || len(assignment) != len(vec) {
		return SimResult{}, errors.New("gauss: configuration, vector, and assignment disagree on task count")
	}
	seen := make([]bool, n)
	for r, owned := range assignment {
		if len(owned) != vec[r] {
			return SimResult{}, fmt.Errorf("gauss: rank %d assigned %d rows, vector says %d", r, len(owned), vec[r])
		}
		for i, g := range owned {
			if g < 0 || g >= n || seen[g] {
				return SimResult{}, fmt.Errorf("gauss: row %d misassigned", g)
			}
			if i > 0 && owned[i-1] >= g {
				return SimResult{}, fmt.Errorf("gauss: rank %d assignment not ascending", r)
			}
			seen[g] = true
		}
	}
	var x []float64
	var solveErr error
	job := spmd.Job{
		Net:       net,
		Placement: pl,
		Vector:    vec,
		Topology:  topo.Broadcast{},
		Body: func(t *spmd.Task) {
			sol, err := runTask(t, s, assignment[t.Rank()])
			if t.Rank() == 0 {
				x, solveErr = sol, err
			}
		},
	}
	rep, err := spmd.Run(job)
	if err != nil {
		return SimResult{}, err
	}
	if solveErr != nil {
		return SimResult{}, solveErr
	}
	return SimResult{ElapsedMs: rep.ElapsedMs, X: x, Report: rep}, nil
}

// runTask is the per-rank distributed elimination. owned lists the global
// rows this rank holds (ascending); local storage appends the rhs to each
// row.
func runTask(t *spmd.Task, s System, owned []int) ([]float64, error) {
	n := len(s.A)
	local := make([][]float64, len(owned))
	localIdx := make(map[int]int, len(owned))
	for i, g := range owned {
		local[i] = make([]float64, n+1)
		copy(local[i], s.A[g])
		local[i][n] = s.B[g]
		localIdx[g] = i
	}
	owns := func(g int) bool { _, ok := localIdx[g]; return ok }
	msgBytes := candidateBytes(n)

	for k := 0; k < n; k++ {
		// Local pivot candidate among owned active rows (global ≥ k).
		// owned is ascending and selection is strict, so the candidate is
		// the lowest-index maximum — matching Sequential's tie-breaking.
		cand := candidate{row: -1}
		for i := range local {
			g := owned[i]
			if g < k {
				continue
			}
			if v := math.Abs(local[i][k]); cand.row < 0 || v > cand.absVal {
				cand.absVal = v
				cand.row = g
				cand.data = local[i]
			}
		}
		if cand.data != nil {
			cand.data = append([]float64(nil), cand.data...)
		}
		if owns(k) {
			cand.rowK = append([]float64(nil), local[localIdx[k]]...)
		}

		var msg pivotMsg
		if t.Rank() == 0 {
			// Gather candidates; select; broadcast.
			best := cand
			var rowK []float64 = cand.rowK
			for src := 1; src < t.NumTasks(); src++ {
				c := t.Recv(src).(candidate)
				// Prefer strictly larger |pivot|; on exact ties, the
				// lowest row index (Sequential's first-maximum rule, kept
				// assignment independent).
				if c.row >= 0 && (best.row < 0 || c.absVal > best.absVal ||
					(c.absVal == best.absVal && c.row < best.row)) {
					best = c
				}
				if c.rowK != nil {
					rowK = c.rowK
				}
			}
			if best.row < 0 || best.absVal < 1e-12 {
				msg = pivotMsg{pivotRow: -1}
			} else {
				msg = pivotMsg{pivotRow: best.row, pivot: best.data, oldK: rowK}
			}
			for dst := 1; dst < t.NumTasks(); dst++ {
				t.Send(dst, 2*msgBytes, msg)
			}
		} else {
			t.Send(0, msgBytes, cand)
			msg = t.Recv(0).(pivotMsg)
		}
		if msg.pivotRow < 0 {
			if t.Rank() == 0 {
				return nil, ErrSingular
			}
			return nil, nil
		}
		// Swap: row k takes the pivot contents; the pivot's old slot takes
		// the previous row k.
		if owns(k) {
			copy(local[localIdx[k]], msg.pivot)
		}
		if owns(msg.pivotRow) && msg.pivotRow != k {
			copy(local[localIdx[msg.pivotRow]], msg.oldK)
		}
		// Eliminate owned active rows below k; charge ~2(n-k) flops each.
		pivot := msg.pivot
		elimOps := 0.0
		for i := range local {
			g := owned[i]
			if g <= k {
				continue
			}
			f := local[i][k] / pivot[k]
			local[i][k] = 0
			if f != 0 {
				for j := k + 1; j <= n; j++ {
					local[i][j] -= f * pivot[j]
				}
			}
			elimOps += 2 * float64(n-k+1)
		}
		t.Compute(elimOps, model.OpFloat)
	}

	// Gather the upper-triangular system at the root for back substitution.
	if t.Rank() == 0 {
		a := make([][]float64, n)
		b := make([]float64, n)
		fill := func(g int, row []float64) {
			a[g] = row[:n]
			b[g] = row[n]
		}
		for i := range local {
			fill(owned[i], local[i])
		}
		for src := 1; src < t.NumTasks(); src++ {
			part := t.Recv(src).(map[int][]float64)
			for g, row := range part {
				fill(g, row)
			}
		}
		t.Compute(float64(n*n), model.OpFloat) // back substitution cost
		return backSubstitute(a, b), nil
	}
	part := make(map[int][]float64, len(owned))
	for i := range local {
		part[owned[i]] = local[i]
	}
	t.Send(0, len(owned)*candidateBytes(n), part)
	return nil, nil
}
