package stencil

import (
	"fmt"
	"sync"

	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/faults"
	"netpart/internal/model"
	"netpart/internal/obs"
	"netpart/internal/repart"
	"netpart/internal/simnet"
	"netpart/internal/spmd"
	"netpart/internal/topo"
)

// SimResult is the outcome of one simulated distributed execution.
type SimResult struct {
	// ElapsedMs is the virtual elapsed time of the whole run (10-iteration
	// Table 2 measurements exclude initial distribution, as does this).
	ElapsedMs float64
	// Grid is the assembled final grid.
	Grid [][]float64
	// Report carries substrate statistics.
	Report spmd.Report
}

// RunSim executes the distributed stencil on the simulated network: one
// task per processor of the configuration (contiguous 1-D placement,
// fastest cluster first), rows assigned by the partition vector, iters
// Jacobi iterations. The final grid is assembled and returned for
// verification against Sequential.
func RunSim(net *model.Network, cfg cost.Config, vec core.Vector, v Variant, n, iters int) (SimResult, error) {
	res, err := RunSimAdaptive(net, cfg, vec, v, n, iters, AdaptiveOptions{})
	return res.SimResult, err
}

// AdaptiveOptions configures RunSimAdaptive. The zero value is RunSim.
type AdaptiveOptions struct {
	// RebalanceEvery recomputes the partition vector every R iterations
	// from measured per-task compute times — the paper's §7 future-work
	// strategy for load imbalance from processor sharing (0 disables).
	RebalanceEvery int
	// Planner parameterizes the repartitioning search (migration cost,
	// amortization horizon, hysteresis). The zero value load-balances with
	// free migration.
	Planner repart.PlannerConfig
	// Slowdown injects external load: a multiplicative compute-time factor
	// for (rank, iteration). Nil means none.
	Slowdown func(rank, iter int) float64
	// Tol, when positive, runs until the global maximum point change of an
	// iteration falls to it (iters is then the cap): each iteration ends
	// with a max-reduction gathered at rank 0 and broadcast back.
	Tol float64
	// Injector, when non-nil, runs under its fault schedule. Packet faults
	// are injected below the simulator's reliability layer — drops cost
	// retransmission round-trips of RetransmitMs each and delays stretch
	// delivery, but messages still arrive intact and in order — and
	// slowdown faults stretch compute times, composing with Slowdown.
	// Crashes are not meaningful under the virtual-time simulator; failure
	// recovery belongs to the live runtime (RunLiveFT).
	Injector     faults.Injector
	RetransmitMs float64
	// Metrics, when non-nil, receives the spmd runtime metrics (per-cycle
	// and per-exchange virtual times, messages, bytes) plus rebalance
	// counters (adaptive.rebalances, adaptive.migrated_rows) and the
	// engine's repart.* series.
	Metrics *obs.Registry
	// Trace, when non-nil, receives one span per task per cycle for Chrome
	// export and one "repart" event per planning decision.
	Trace *obs.Recorder
	// Cycles, when non-nil, receives every task's cycle and border-exchange
	// duration in virtual milliseconds as it completes — the hookup point
	// for the drift monitor (internal/obs/drift).
	Cycles obs.CycleSink
	// Observer, when non-nil, receives repart decisions as EvRepartPlan
	// search events.
	Observer core.Observer
	// SimOptions configure the underlying simulator (jitter, message
	// observers).
	SimOptions []simnet.Option
	// TimeOnly runs the same protocol — the same sends, bytes, compute
	// charges and virtual time — without computing a grid value: for a
	// caller that reads times, messages and plans and discards the grid.
	// Result.Grid is nil. Tol is refused with it, because convergence reads
	// values.
	TimeOnly bool
}

// AdaptiveResult extends SimResult with what the run's policies did.
type AdaptiveResult struct {
	SimResult
	RunStats
}

// RunSimAdaptive is the general simulated entry point: RunSim plus the
// policies in opts. With RebalanceEvery it repartitions periodically
// through the internal/repart engine — the tasks report their measured
// compute times to rank 0, which runs the incremental restreaming planner
// and broadcasts the decision; tasks then migrate the actual grid rows to
// their new owners before continuing. The final grid remains bit-exact with
// the sequential reference regardless of how rows move.
func RunSimAdaptive(net *model.Network, cfg cost.Config, vec core.Vector, v Variant, n, iters int, opts AdaptiveOptions) (AdaptiveResult, error) {
	if opts.TimeOnly && opts.Tol > 0 {
		return AdaptiveResult{}, fmt.Errorf("stencil: TimeOnly cannot run with Tol %g: a time-only run computes no point change to converge on", opts.Tol)
	}
	names, counts := cfg.Active()
	pl, err := topo.Contiguous(names, counts)
	if err != nil {
		return AdaptiveResult{}, err
	}
	j, err := newJob(vec, pl.NumTasks(), v, n, iters, nil, &repart.Engine{
		Planner:  repart.NewPlanner(opts.Planner),
		Metrics:  opts.Metrics,
		Trace:    opts.Trace,
		Observer: opts.Observer,
	})
	if err != nil {
		return AdaptiveResult{}, err
	}
	j.load, j.tol, j.every = opts.Slowdown, opts.Tol, opts.RebalanceEvery
	if opts.TimeOnly {
		j.timeOnly, j.rows = true, nil
	}
	simOpts := opts.SimOptions
	if inj := opts.Injector; inj != nil {
		simOpts = append(append([]simnet.Option(nil), simOpts...),
			simnet.WithFaultInjector(inj, opts.RetransmitMs))
		injected := faults.SlowdownFunc(inj)
		if base := opts.Slowdown; base != nil {
			j.load = func(rank, iter int) float64 { return base(rank, iter) * injected(rank, iter) }
		} else {
			j.load = injected
		}
	}
	errs := make([]error, len(vec))
	rep, err := spmd.Run(spmd.Job{
		Net:        net,
		Placement:  pl,
		Vector:     vec,
		Topology:   topo.OneD{},
		Metrics:    opts.Metrics,
		Trace:      opts.Trace,
		Cycles:     opts.Cycles,
		SimOptions: simOpts,
		Body:       func(t *spmd.Task) { errs[t.Rank()] = j.runRank(&simLink{t: t, timeOnly: j.timeOnly}) },
	})
	grid, err := j.finish(errs, err)
	if err != nil {
		return AdaptiveResult{}, err
	}
	opts.Metrics.Counter("adaptive.rebalances").Add(int64(j.out.Rebalances))
	opts.Metrics.Counter("adaptive.migrated_rows").Add(int64(j.out.MigratedRows))
	return AdaptiveResult{SimResult{ElapsedMs: rep.ElapsedMs, Grid: grid, Report: rep}, j.out}, nil
}

// simLink is the driver's link over a virtual-time task handle. It keeps
// the rank's outgoing borders in a two-slot ring per side, ring[side][k&1]
// for cycle k (side 0 north, 1 south), and sends a pointer to the slot, so
// a border costs one message and no allocation. A slot is free again when
// it is rewritten: rank A writes border k+2 for B only after receiving B's
// border k+1, which B sent only after its cycle-k receives, A's border k
// among them.
type simLink struct {
	t        *spmd.Task
	timeOnly bool
	ring     [2][2]halo
}

func (l *simLink) Rank() int { return l.t.Rank() }
func (l *simLink) Size() int { return l.t.NumTasks() }

// Send charges the paper's 4N bytes for the border. A full run copies the
// values into the slot, because the sim delivers them after this task has
// begun overwriting the row in place. A time-only slot aliases the row:
// the receiver checks only row, cycle and length, and copies no values.
func (l *simLink) Send(dst int, h halo) error {
	side := 0
	if dst > l.t.Rank() {
		side = 1
	}
	slot := &l.ring[side][h.cycle&1]
	slot.row, slot.cycle = h.row, h.cycle
	if l.timeOnly {
		slot.vals = h.vals
	} else {
		slot.vals = append(slot.vals[:0], h.vals...)
	}
	l.t.Send(dst, BytesPerPoint*len(h.vals), slot)
	return nil
}

// Recv leaves a payload of the wrong kind (a control frame where a border
// is due, or the reverse in simControl.Recv) as the zero value, which the
// driver's row and cycle check, or the frame's decoder, rejects.
func (l *simLink) Recv(src int) (halo, error) {
	if h, ok := l.t.Recv(src).(*halo); ok {
		return *h, nil
	}
	return halo{}, nil
}

func (l *simLink) control() repart.Link { return simControl{l.t} }
func (l *simLink) nowMs() float64       { return l.t.NowMs() }

// overlapPoints is the smallest span, in grid points, whose update is worth
// a goroutine hand-off; a smaller one runs on the rank's own goroutine.
const overlapPoints = 4096

// compute batches the span's per-row virtual-time charges into one park
// and overlaps the update with it: while the rank is parked for the charged
// time the simulator runs the ranks that compute at the same virtual time,
// and their updates run beside this one on whatever cores there are.
// Joining before the return keeps the flip and the next Send behind the
// update, so no other goroutine sees a block mid-write and virtual time
// does not see the update at all. A panic in the update is carried over the
// join and raised again here, on the rank's goroutine, where the simulator
// turns it into the run's error; the join is deferred so that it also
// happens, and the worker is not left blocked on its send, if the park
// itself panics or the simulator unwinds the rank. A time-only run charges
// and parks the same, and has no update to run or join.
func (l *simLink) compute(s *rankState, lo, hi int, factor float64) {
	n := s.job.n
	cb := l.t.BeginCompute()
	for g := s.off + lo - 1; g < s.off+hi; g++ {
		cb.Ops(rowOps(g, n)*factor, model.OpFloat)
	}
	if s.job.timeOnly {
		cb.Done()
		return
	}
	if (hi-lo+1)*n < overlapPoints {
		s.update(lo, hi, 1)
		cb.Done()
		return
	}
	done := make(chan any) // unbuffered: the deferred join below always receives
	go func() {
		defer func() { done <- recover() }()
		s.update(lo, hi, 1)
	}()
	defer func() {
		if r := <-done; r != nil {
			panic(r)
		}
	}()
	cb.Done()
}

// dirtyCells recycles the backing arrays of time-only blocks across runs.
// They are handed out as the last run left them, not zeroed: no value of a
// time-only block reaches a result, a branch or virtual time. The update
// that would read them never runs, a border's charge and the halo check read
// its row, cycle and length only, and a migrated row is a fixed 8 bytes a
// value whatever the value. Boxes keep Get and Put free of allocation once
// the pool is warm.
var dirtyCells = sync.Pool{New: func() any { return new([]float64) }}

// getBlock returns a block of rows data rows and width columns over a pooled
// backing array with whatever values it holds, and the box to hand back with
// putBlock once the block is dead.
func getBlock(rows, width int) (block, *[]float64) {
	p := dirtyCells.Get().(*[]float64)
	n := (rows + 3) * width
	if cap(*p) < n+2*width {
		*p = make([]float64, n+2*width)
	}
	*p = (*p)[:n+2*width]
	return block{width: width, rows: rows, shift: 1, cells: (*p)[:n:n], stash: (*p)[n:]}, p
}

// putBlock recycles a box obtained from getBlock. Nothing may touch the
// block afterwards: the next getBlock may hand its cells to another run.
func putBlock(p *[]float64) { dirtyCells.Put(p) }

func (l *simLink) endCycle(_ int, _, _, exchangeMs float64) {
	l.t.ObserveExchange(exchangeMs)
	l.t.EndCycle()
}

// simControl adapts the task handle to the repart protocol's transport
// surface. Sends are charged at the encoded byte size.
type simControl struct{ t *spmd.Task }

func (l simControl) Rank() int { return l.t.Rank() }
func (l simControl) Size() int { return l.t.NumTasks() }
func (l simControl) Send(dst int, data []byte) error {
	l.t.Send(dst, len(data), data)
	return nil
}
func (l simControl) Recv(src int) ([]byte, error) {
	buf, _ := l.t.Recv(src).([]byte)
	return buf, nil
}
