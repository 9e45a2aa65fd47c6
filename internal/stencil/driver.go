package stencil

import (
	"fmt"

	"netpart/internal/core"
	"netpart/internal/mmps"
	"netpart/internal/obs"
	"netpart/internal/repart"
)

// The cycle driver. Every stencil runtime executes this one per-rank cycle
// loop (the fault-tolerant one, ftlive.go, calls cycles from its own
// recovery loop); what differs between the simulated and the live runtimes
// sits behind the link interface, and what differs between runs (load,
// converge-until, repartitioning) is a field of job that newJob fills in
// from Options, not a copy of the loop. The driver also observes every
// cycle itself, in one place (rankState.report), so a cycle means the same
// on every runtime.

// Metric names the cycle driver records, in virtual milliseconds on Sim and
// wall milliseconds on Live.
const (
	MetricCycleMs    = "stencil.cycle_ms"    // per rank per cycle
	MetricExchangeMs = "stencil.exchange_ms" // the cycle's sends and receive waits
	MetricElapsedMs  = "stencil.elapsed_ms"  // gauge: the run's time
)

// halo is one border row in flight: the global row index, the cycle it
// belongs to, and its values.
type halo struct {
	row, cycle int
	vals       []float64
}

// link is the driver's view of one rank's runtime. The simulator's link
// (sim.go) charges the paper's 4N bytes per border and advances virtual
// time; the live link (live.go) frames borders through the halo codec onto
// an mmps transport and reads the wall clock.
type link interface {
	Rank() int
	Size() int
	// Send queues one border row for dst and returns without waiting for
	// the receiver (Transport.Send's contract; the simulator's sends are
	// asynchronous too). The driver's exchange relies on that: see cycles.
	Send(dst int, h halo) error
	// Recv blocks for the next border row from src and writes its values
	// into the ghost row into, n long, except in a time-only run, whose
	// ghost rows stay dirty: no update reads them. The halo returned
	// carries the sender's row and cycle and the values as received, valid
	// until the next Recv, so the driver can check all three; a border of
	// the wrong length may leave into partly written.
	Recv(src int, into []float64) (halo, error)
	// control is the byte-frame channel between the same ranks, used by
	// the repartitioning round, row migration and the converge reduction.
	control() repart.Link
	// nowMs reads the runtime's clock: virtual or wall milliseconds.
	nowMs() float64
	// compute runs s.update on local rows [lo, hi] under a load factor and
	// returns once it is done: the live runtime emulates the load by
	// repeating the work; the simulator computes once, charges the
	// operations to virtual time, and lets the update run beside the
	// other ranks' while this rank is parked in that time.
	compute(s *rankState, lo, hi int, factor float64)
}

// job is one distributed run: the problem, the policies its Options chose,
// and the shared result. Ranks read it concurrently; only rank 0 (under FT,
// the survivor that records a recovery, holding ftShared's lock) writes
// out, and each rank publishes its own rows of the grid.
type job struct {
	v        Variant
	n, iters int
	vec      core.Vector
	// rows is the result: row g is a view of the block of the rank that owns
	// it, nil until that rank finishes. A time-only job has none.
	rows [][]float64
	// timeOnly skips every update (the simulator's link only): ranks take
	// dirty blocks from getBlock, return them with putBlock and publish no
	// rows.
	timeOnly bool

	// load multiplies the cost of rank's row updates at iter; nil means 1.
	load func(rank, iter int) float64
	// tol > 0 ends the run once the global maximum point change of a cycle
	// falls to it; iters is then the cap.
	tol float64
	// every > 0 enters a repartitioning round after each multiple of every
	// cycles. With a trigger, rank 0 only plans in a round when the trigger
	// fired or the fallback interval is due.
	every    int
	trigger  repart.Trigger
	fallback int
	eng      *repart.Engine

	// What report records each finished cycle into; nil when not asked for.
	cycleMs, exchangeMs *obs.Histogram
	sink                obs.CycleSink
	rec                 *obs.Recorder

	out RunStats
}

// RunStats is what a run's policies did, as rank 0 saw it.
type RunStats struct {
	// Rebalances counts repartitioning decisions that changed the vector.
	Rebalances int
	// MigratedRows counts grid rows that changed owners.
	MigratedRows int
	// FinalVector is the partition vector after the last rebalance.
	FinalVector core.Vector
	// Plans is the ordered decision sequence rank 0 took (keeps included).
	// Deterministic under the virtual-time simulator: the golden tests
	// compare rendered plans byte-for-byte across runs and worker counts.
	Plans []repart.Plan
	// Iterations is the number of cycles executed: iters, or fewer when a
	// tolerance stopped the run.
	Iterations int
	// FinalDelta is the last global maximum point change (runs with a
	// tolerance only).
	FinalDelta float64
}

// checkVector is the one validation every entry point shares: the
// partition vector must give each of the tasks at least one row (a rank
// without rows has no border to send, and its neighbours would wait on it
// forever), sum to the problem size, and match the work factors if any.
func checkVector(vec core.Vector, tasks, n int, workFactor []int) error {
	if tasks == 0 || tasks != len(vec) {
		return fmt.Errorf("stencil: %d tasks for %d vector entries", tasks, len(vec))
	}
	for rank, rows := range vec {
		if rows < 1 {
			return fmt.Errorf("stencil: rank %d is assigned %d rows; every rank needs at least one", rank, rows)
		}
	}
	if vec.Sum() != n {
		return fmt.Errorf("stencil: vector sums to %d, want N=%d rows", vec.Sum(), n)
	}
	if workFactor != nil && len(workFactor) != tasks {
		return fmt.Errorf("stencil: %d work factors for %d tasks", len(workFactor), tasks)
	}
	return nil
}

// checkEvery is the round cadence (in iterations) when a repart trigger is
// configured. Each round costs one gather/broadcast exchange, so it stays
// coarse relative to the cycle time.
const checkEvery = 4

// newJob validates a run of tasks ranks on the runtime (Live when live is
// set, else Sim) and sets it up: every option becomes a job field here, and
// only a run that keeps its grid gets the result rows.
func newJob(live bool, vec core.Vector, tasks int, v Variant, n, iters int, opts Options) (*job, error) {
	if iters < 0 {
		return nil, fmt.Errorf("stencil: iters = %d; a run needs 0 or more iterations", iters)
	}
	if err := opts.refuse(live, tasks); err != nil {
		return nil, err
	}
	if err := checkVector(vec, tasks, n, opts.WorkFactor); err != nil {
		return nil, err
	}
	j := &job{
		v: v, n: n, iters: iters, vec: vec,
		timeOnly: opts.TimeOnly,
		load:     opts.load(),
		tol:      opts.Tol,
		every:    opts.RebalanceEvery, trigger: opts.Trigger, fallback: opts.RebalanceEvery,
		eng: &repart.Engine{
			Planner: repart.NewPlanner(opts.Planner),
			Metrics: opts.Metrics,
			Trace:   opts.Trace,
		},
		cycleMs:    opts.Metrics.Histogram(MetricCycleMs),
		exchangeMs: opts.Metrics.Histogram(MetricExchangeMs),
		sink:       opts.Cycles,
		rec:        opts.Trace,
		out:        RunStats{FinalVector: append(core.Vector(nil), vec...)},
	}
	if opts.Trigger != nil {
		j.every = checkEvery
	}
	if !j.timeOnly {
		j.rows = make([][]float64, n)
	}
	return j, nil
}

// finish returns the assembled grid once every rank is done. A rank's own
// error comes before the runtime's (runErr, the simulator's): it is what
// explains the deadlock reported once that rank's neighbours wait on it
// forever.
func (j *job) finish(errs []error, runErr error) ([][]float64, error) {
	for rank, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("stencil: rank %d: %w", rank, err)
		}
	}
	if runErr != nil || j.timeOnly {
		return nil, runErr
	}
	for i, row := range j.rows {
		if row == nil {
			return nil, fmt.Errorf("stencil: row %d not produced", i)
		}
	}
	return j.rows, nil
}

// rankState is one rank's share of a job: it owns global rows
// [off, off+rows), held in cur as one flat block with a ghost row on each
// side at local indices 0 and rows+1. cur is the run's one zeroed allocation,
// is swept in place every cycle and ends as the caller's result rows; in a
// time-only run it is a dirty pooled block whose box is kept in box.
type rankState struct {
	job       *job
	lk        link
	rank      int // physical rank: the one the job's load and report name
	iter      int // the next cycle to run
	rows, off int
	cur       block
	box       *[]float64
	scratch   []float64 // target of the repeated updates that emulate load
	windowMs  float64   // compute time since the last repartitioning round
	delta     float64   // this cycle's local maximum point change
}

// runRank is the per-rank body of every driver-based runtime: cycles up to
// the next synchronisation point, then whatever the job's policies ask for
// there — the converge reduction, a repartitioning round with its
// migration — until the iterations are done.
func (j *job) runRank(lk link) error {
	rank, size := lk.Rank(), lk.Size()
	s := j.start(lk, rank)
	for s.iter < j.iters {
		stop := j.iters
		switch {
		case j.tol > 0:
			stop = s.iter + 1
		case j.every > 0 && size > 1:
			stop = min(stop, (s.iter/j.every+1)*j.every)
		}
		if err := s.cycles(stop); err != nil {
			return err
		}
		if j.tol > 0 {
			global, err := reduceMax(lk.control(), s.delta)
			if err != nil {
				return err
			}
			if rank == 0 {
				j.out.FinalDelta = global
			}
			if global <= j.tol {
				break
			}
		}
		if s.iter < j.iters && j.every > 0 && s.iter%j.every == 0 && size > 1 {
			if err := s.rebalance(); err != nil {
				return err
			}
		}
	}
	if rank == 0 {
		j.out.Iterations = s.iter
	}
	if j.timeOnly {
		putBlock(s.box)
		return nil
	}
	s.publish()
	return nil
}

// start returns physical rank's share of the job before its first cycle: its
// rows under the job's vector, in a block holding the initial condition.
func (j *job) start(lk link, rank int) *rankState {
	own := repart.NewOwners(j.vec)
	s := &rankState{job: j, lk: lk, rank: rank, rows: own.Count(rank), off: own.First(rank)}
	s.cur, s.box = j.block(s.rows)
	if s.off == 0 {
		initialRow(s.cur.row(1), 0)
	}
	return s
}

// publish makes the rank's rows the job's result rows.
func (s *rankState) publish() {
	for i := 0; i < s.rows; i++ {
		s.job.rows[s.off+i] = s.cur.row(i + 1)
	}
}

// block returns a block of rows data rows: a zeroed one that the caller
// keeps, or, in a time-only job, a dirty pooled one with the box putBlock
// takes back.
func (j *job) block(rows int) (block, *[]float64) {
	if j.timeOnly {
		return getBlock(rows, j.n)
	}
	return newBlock(rows, j.n), nil
}

// cycles runs iterations [s.iter, to) of the paper's communication cycle:
// asynchronous sends of both border rows, blocking receives of both ghost
// rows, the grid update — with STEN-2 hiding the transfer behind the
// interior rows, which need no ghost data (Eq. 4–6). Each finished cycle
// is reported once and advances s.iter; the exchange time reported covers
// the sends and the receive waits only.
//
// The clock is read only where a reading is used: a cycle starts at the
// previous cycle's end reading, and on STEN-1 the reading after the sends
// also starts the receives, so a STEN-1 cycle takes three readings and a
// STEN-2 cycle four (plus one when the call opens); computeRows takes its
// own two only when a repartitioning round will read them.
//
// Sending both borders before receiving is a send-send cycle between
// neighbours, so the order is only live on a transport whose Send queues
// the message and returns. That is the contract of mmps.Transport.Send and
// of the simulator, and it is declared here rather than assumed:
// netpartverify checks this function under buffered semantics (capacity 1
// suffices) and does not claim the rendezvous case.
//
//netpart:lockstep sem=buffered
func (s *rankState) cycles(to int) error {
	lk, n := s.lk, s.job.n
	rank, size := lk.Rank(), lk.Size()
	north, south := rank-1, rank+1
	hasNorth, hasSouth := north >= 0, south < size
	exchangeMs := 0.0
	recvGhost := func(src, row, iter int, into []float64) error {
		h, err := lk.Recv(src, into)
		if err != nil {
			return err
		}
		if h.row != row || h.cycle != iter || len(h.vals) != n {
			return fmt.Errorf("ghost row %d at cycle %d with %d values, want row %d cycle %d (%d values)",
				h.row, h.cycle, len(h.vals), row, iter, n)
		}
		return nil
	}
	recvGhosts := func(iter int, start float64) error {
		if hasNorth {
			if err := recvGhost(north, s.off-1, iter, s.cur.row(0)); err != nil {
				return err
			}
		}
		if hasSouth {
			if err := recvGhost(south, s.off+s.rows, iter, s.cur.row(s.rows+1)); err != nil {
				return err
			}
		}
		exchangeMs += lk.nowMs() - start
		return nil
	}

	start := lk.nowMs()
	for iter := s.iter; iter < to; iter++ {
		s.delta = 0
		if hasNorth {
			if err := lk.Send(north, halo{s.off, iter, s.cur.row(1)}); err != nil {
				return err
			}
		}
		if hasSouth {
			if err := lk.Send(south, halo{s.off + s.rows - 1, iter, s.cur.row(s.rows)}); err != nil {
				return err
			}
		}
		sent := lk.nowMs()
		exchangeMs = sent - start
		switch s.job.v {
		case STEN1:
			if err := recvGhosts(iter, sent); err != nil {
				return err
			}
			s.computeRows(1, s.rows, iter)
		default: // STEN2; no variant may leave the borders just sent unreceived
			if s.rows > 2 {
				s.computeRows(2, s.rows-1, iter)
			}
			if err := recvGhosts(iter, lk.nowMs()); err != nil {
				return err
			}
			s.computeRows(1, 1, iter)
			if s.rows > 1 {
				s.computeRows(s.rows, s.rows, iter)
			}
		}
		s.cur.flip()
		end := lk.nowMs()
		s.report(iter, start, end, exchangeMs)
		s.iter, start = iter+1, end
	}
	return nil
}

// report is the one observation of a finished cycle, the same on every
// runtime: the cycle and exchange histograms, the cycle sink and a "cycle"
// span, all under the rank's physical number. A cycle runs from the end of
// the one before it in the same call of cycles, or from the call, so a
// reduction or a repartitioning round between calls belongs to no cycle.
func (s *rankState) report(iter int, startMs, endMs, exchangeMs float64) {
	j, ms := s.job, endMs-startMs
	j.cycleMs.Observe(ms)
	j.exchangeMs.Observe(exchangeMs)
	if j.sink != nil {
		j.sink.OnCycle(s.rank, iter, ms, exchangeMs)
	}
	if j.rec != nil {
		j.rec.Span("cycle", s.rank, startMs, ms, map[string]any{"iter": iter})
	}
}

// computeRows updates local rows [lo, hi] under the job's load and, in a
// job that repartitions, adds the time it took, on the link's clock, to the
// measurement window the next repartitioning round reports. One link call
// covers the whole span.
func (s *rankState) computeRows(lo, hi, iter int) {
	factor := 1.0
	if s.job.load != nil {
		factor = s.job.load(s.rank, iter)
	}
	if s.job.every == 0 {
		s.lk.compute(s, lo, hi, factor)
		return
	}
	start := s.lk.nowMs()
	s.lk.compute(s, lo, hi, factor)
	s.windowMs += s.lk.nowMs() - start
}

// update is the numeric half of computeRows, reps times over. It touches
// this rank's block, scratch and delta only, which is what lets the
// simulator's link run it on another goroutine while the rank is parked.
func (s *rankState) update(lo, hi, reps int) {
	j := s.job
	if reps > 1 && s.scratch == nil {
		s.scratch = make([]float64, j.n)
	}
	var delta *float64
	if j.tol > 0 {
		delta = &s.delta
	}
	s.cur.sweep(s.off, j.n, lo, hi, reps, s.scratch, delta)
}

// rowOps returns the operations charged for updating one global row: the
// five-point update for interior rows, a copy for boundary rows.
func rowOps(globalRow, n int) float64 {
	if globalRow == 0 || globalRow == n-1 {
		return float64(n) // boundary rows are only copied
	}
	return OpsPerPoint * float64(n)
}

// reduceMax is the converge-until reduction: every rank reports its local
// maximum point change to rank 0, which broadcasts the global maximum —
// the same gather/broadcast shape as the repartitioning round. A
// contribution is one float64 in the mmps coercion format, 8 bytes.
//
//netpart:lockstep
func reduceMax(lk repart.Link, local float64) (float64, error) {
	rank, size := lk.Rank(), lk.Size()
	if rank != 0 {
		if err := lk.Send(0, mmps.EncodeFloat64s([]float64{local})); err != nil {
			return 0, err
		}
		buf, err := lk.Recv(0)
		if err != nil {
			return 0, err
		}
		return oneFloat64(mmps.DecodeFloat64s(buf))
	}
	global := local
	for src := 1; src < size; src++ {
		buf, err := lk.Recv(src)
		if err != nil {
			return 0, err
		}
		d, err := oneFloat64(mmps.DecodeFloat64s(buf))
		if err != nil {
			return 0, err
		}
		global = max(global, d)
	}
	msg := mmps.EncodeFloat64s([]float64{global})
	for dst := 1; dst < size; dst++ {
		if err := lk.Send(dst, msg); err != nil {
			return 0, err
		}
	}
	return global, nil
}

// oneFloat64 unwraps a decoded convergence frame.
func oneFloat64(vals []float64, err error) (float64, error) {
	if err == nil && len(vals) != 1 {
		err = fmt.Errorf("stencil: convergence frame of %d values, want 1", len(vals))
	}
	if err != nil {
		return 0, err
	}
	return vals[0], nil
}

// rebalance is one repartitioning round after s.iter completed cycles: the
// engine's gather → plan → broadcast and, when the plan moved rows, their
// migration. Every rank enters at the shared cadence so the protocol stays
// in lockstep; only rank 0 consults the trigger, so wall-clock-dependent
// firing cannot desynchronize the ranks.
func (s *rankState) rebalance() error {
	j, ctl, iter := s.job, s.lk.control(), s.iter
	rank := ctl.Rank()
	doPlan, reason := true, "interval"
	if rank == 0 && j.trigger != nil {
		doPlan, reason = j.trigger.Take(), "drift"
		if !doPlan && j.fallback > 0 && iter%j.fallback == 0 {
			doPlan, reason = true, "interval"
		}
	}
	plan, err := j.eng.Round(ctl, iter-1, reason, s.rows, s.windowMs, doPlan)
	if err != nil {
		return err
	}
	s.windowMs = 0
	if rank == 0 {
		j.out.Plans = append(j.out.Plans, plan)
		if plan.Changed() {
			j.out.Rebalances++
			j.out.MigratedRows += plan.MovedRows
		}
		copy(j.out.FinalVector, plan.New)
	}
	if !plan.Changed() {
		return nil
	}
	newOwn := repart.NewOwners(plan.New)
	newRows, newOff := newOwn.Count(rank), newOwn.First(rank)
	ncur, nbox := j.block(newRows)
	_, _, err = repart.Migrator{Width: j.n}.Migrate(ctl, plan.Old, plan.New,
		func(g int) []float64 { return s.cur.row(g - s.off + 1) },
		func(g int, row []float64) { copy(ncur.row(g-newOff+1), row) })
	if err != nil {
		return err
	}
	if j.timeOnly {
		putBlock(s.box)
	}
	s.rows, s.off, s.cur, s.box = newRows, newOff, ncur, nbox
	return nil
}
