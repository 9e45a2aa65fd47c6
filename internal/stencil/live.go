package stencil

import (
	"sync"
	"time"

	"netpart/internal/core"
	"netpart/internal/mmps"
	"netpart/internal/obs"
	"netpart/internal/repart"
)

// Metric names the live runtimes record. Live metrics measure wall-clock
// time, unlike the spmd.Metric* virtual-time metrics.
const (
	MetricLiveCycleMs    = "live.cycle_ms"    // per-task per-cycle wall time
	MetricLiveExchangeMs = "live.exchange_ms" // border exchange (sends + receive waits) wall time
	MetricLiveElapsedMs  = "live.elapsed_ms"  // gauge: whole-run wall time
)

// LiveResult is the outcome of a real (wall-clock) distributed execution
// over an mmps transport world.
type LiveResult struct {
	// Elapsed is the wall-clock duration of the iteration loop (initial
	// distribution excluded, matching the paper's Table 2 timings).
	Elapsed time.Duration
	// Grid is the assembled final grid.
	Grid [][]float64
}

// RunLive executes the distributed stencil over real concurrent tasks —
// one goroutine per rank — communicating through the given mmps transports
// (UDP or in-memory). Rows are assigned by the partition vector; borders
// travel in network byte order (the MMPS coercion format).
//
// workFactor optionally emulates processor heterogeneity: tasks re-execute
// their row updates workFactor[rank]-1 extra times into a scratch buffer,
// making a rank behave like a proportionally slower processor. Nil means
// uniform speed.
//
//netpart:wallclock
func RunLive(world []mmps.Transport, vec core.Vector, v Variant, n, iters int, workFactor []int) (LiveResult, error) {
	return RunLiveMonitored(world, vec, v, n, iters, workFactor, nil, nil, nil)
}

// RunLiveMonitored is RunLive with observability attached: wall-clock
// per-cycle and border-exchange histograms (the MetricLive* names) into m,
// one span per task per cycle into rec, timestamped relative to the
// iteration loop's start so the Chrome trace aligns all ranks, and a
// per-cycle subscription: sink receives every rank's cycle and
// border-exchange duration as it completes, from that rank's goroutine —
// the hookup point for the drift monitor (internal/obs/drift). Any of the
// three may be nil.
//
//netpart:wallclock
func RunLiveMonitored(world []mmps.Transport, vec core.Vector, v Variant, n, iters int, workFactor []int, m *obs.Registry, rec *obs.Recorder, sink obs.CycleSink) (LiveResult, error) {
	res, err := RunLiveAdaptive(world, vec, v, n, iters, LiveAdaptiveOptions{
		WorkFactor: workFactor, Metrics: m, Trace: rec, Cycles: sink,
	})
	return res.LiveResult, err
}

// checkEvery is the round cadence (in iterations) when a repart trigger is
// configured. Each round costs one gather/broadcast exchange, so it stays
// coarse relative to the cycle time.
const checkEvery = 4

// LiveAdaptiveOptions configures RunLiveAdaptive. The zero value is
// RunLive with uniform work factors.
type LiveAdaptiveOptions struct {
	// RebalanceEvery recomputes the partition vector every R iterations
	// from measured wall-clock compute times (0 disables). With a Trigger
	// it becomes the fallback cadence: a plan is still computed at this
	// interval even if no drift event fired.
	RebalanceEvery int
	// Trigger, when non-nil, switches to drift-triggered repartitioning:
	// the tasks enter a protocol round every checkEvery (4) iterations but
	// rank 0 only plans when the trigger has fired since the last check
	// (or the RebalanceEvery fallback is due). Wire a repart.DriftTrigger
	// into drift.Config.Notify and pass the same trigger here.
	Trigger repart.Trigger
	// Planner parameterizes the repartitioning search (migration cost and
	// amortization horizon).
	Planner repart.PlannerConfig
	// WorkFactor emulates heterogeneity/load: per-rank extra repetitions
	// of the row update (1 = nominal). Nil means uniform.
	WorkFactor []int
	// Metrics, when non-nil, receives the MetricLive* wall-clock series
	// and the engine's repart.* series.
	Metrics *obs.Registry
	// Trace, when non-nil, receives one span per task per cycle and one
	// "repart" event per decision.
	Trace *obs.Recorder
	// Observer, when non-nil, receives decisions as EvRepartPlan events.
	Observer core.Observer
	// Cycles, when non-nil, receives per-task per-cycle wall-clock
	// measurements — hand it the drift.Monitor that feeds the Trigger to
	// close the detect → plan → migrate loop.
	Cycles obs.CycleSink
}

// LiveAdaptiveResult extends LiveResult with what the run's policies did.
type LiveAdaptiveResult struct {
	LiveResult
	RunStats
}

// RunLiveAdaptive is the general live entry point: RunLiveMonitored plus
// dynamic repartitioning. Concurrent tasks over mmps transports measure
// their wall-clock compute time and repartition through the
// internal/repart engine — rank 0 plans, broadcasts, and the actual grid
// rows migrate over the wire. The result is bit-exact with the sequential
// kernel for any plan sequence (decisions may vary with wall-clock noise;
// the migration protocol keeps every rank consistent because only rank 0
// decides and broadcasts).
//
//netpart:wallclock
func RunLiveAdaptive(world []mmps.Transport, vec core.Vector, v Variant, n, iters int, opts LiveAdaptiveOptions) (LiveAdaptiveResult, error) {
	j, err := newJob(vec, len(world), v, n, iters, opts.WorkFactor, &repart.Engine{
		Planner:  repart.NewPlanner(opts.Planner),
		Metrics:  opts.Metrics,
		Trace:    opts.Trace,
		Observer: opts.Observer,
	})
	if err != nil {
		return LiveAdaptiveResult{}, err
	}
	if wf := opts.WorkFactor; wf != nil {
		j.load = func(rank, _ int) float64 { return float64(wf[rank]) }
	}
	j.every, j.trigger, j.fallback = opts.RebalanceEvery, opts.Trigger, opts.RebalanceEvery
	if opts.Trigger != nil {
		j.every = checkEvery
	}
	errs, elapsed := runRanks(len(world), opts.Metrics, func(rank int, start time.Time) error {
		return j.runRank(&liveLink{
			tr:         world[rank],
			epoch:      start,
			rec:        opts.Trace,
			cycleMs:    opts.Metrics.Histogram(MetricLiveCycleMs),
			exchangeMs: opts.Metrics.Histogram(MetricLiveExchangeMs),
			cycles:     opts.Cycles,
			sendBuf:    make([]byte, 0, haloHeaderLen+8*n),
			ghostVals:  make([]float64, 0, n),
		})
	})
	grid, err := j.finish(errs, nil)
	if err != nil {
		return LiveAdaptiveResult{}, err
	}
	return LiveAdaptiveResult{LiveResult{Elapsed: elapsed, Grid: grid}, j.out}, nil
}

// runRanks runs body once per rank, each on its own goroutine and all
// handed the same start time, waits for every rank, and returns their errors
// and the wall time, which it also records as MetricLiveElapsedMs.
//
//netpart:wallclock
func runRanks(tasks int, m *obs.Registry, body func(rank int, start time.Time) error) ([]error, time.Duration) {
	errs := make([]error, tasks)
	var wg sync.WaitGroup
	start := time.Now()
	for rank := range errs {
		rank := rank
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[rank] = body(rank, start)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	m.Gauge(MetricLiveElapsedMs).Set(float64(elapsed) / float64(time.Millisecond))
	return errs, elapsed
}

// liveLink is the driver's link over an mmps transport: each border is one
// halo frame (halo.go) built in a reused buffer and parsed into a reused
// scratch, so the exchange allocates nothing in steady state. One goroutine
// owns it. The observability hooks are nil-safe; zero values disable them.
type liveLink struct {
	tr         mmps.Transport
	epoch      time.Time
	rec        *obs.Recorder
	cycleMs    *obs.Histogram
	exchangeMs *obs.Histogram
	cycles     obs.CycleSink

	// Send copies its argument before returning and Recv's values are
	// consumed before the next Recv, so one frame buffer and one value
	// scratch serve every exchange of the run — across migrations too,
	// because every block is n columns wide.
	sendBuf   []byte
	ghostVals []float64

	// ftEpoch, when non-nil, is the fault-tolerant runtime's recovery epoch
	// (ftlive.go), tagged on every cycle span beside the iteration.
	ftEpoch *int
}

func (l *liveLink) Rank() int { return l.tr.Rank() }
func (l *liveLink) Size() int { return l.tr.Size() }

func (l *liveLink) Send(dst int, h halo) error {
	l.sendBuf = appendHaloFrame(l.sendBuf[:0], h.row, h.cycle, h.vals)
	return l.tr.Send(dst, l.sendBuf)
}

func (l *liveLink) Recv(src int) (halo, error) {
	buf, err := l.tr.Recv(src)
	if err != nil {
		return halo{}, err
	}
	row, cycle, vals, err := parseHaloFrame(buf, l.ghostVals[:0])
	if err != nil {
		return halo{}, err
	}
	l.ghostVals = vals
	// The values now live in the scratch, so the delivered buffer can go
	// back to the transport's free list.
	mmps.Recycle(l.tr, buf)
	return halo{row, cycle, vals}, nil
}

func (l *liveLink) control() repart.Link { return l.tr }

// nowMs is the wall time since the run epoch in milliseconds.
//
//netpart:wallclock
func (l *liveLink) nowMs() float64 {
	return float64(time.Since(l.epoch)) / float64(time.Millisecond)
}

func (l *liveLink) compute(s *rankState, lo, hi int, factor float64) {
	s.update(lo, hi, loadReps(factor))
}

// loadReps turns a load factor into repetitions of the real work.
func loadReps(factor float64) int {
	if reps := int(factor + 0.5); reps > 1 {
		return reps
	}
	return 1
}

//netpart:wallclock
func (l *liveLink) endCycle(iter int, startMs, endMs, exchangeMs float64) {
	cycle := endMs - startMs
	rank := l.tr.Rank()
	l.cycleMs.Observe(cycle)
	l.exchangeMs.Observe(exchangeMs)
	if l.cycles != nil {
		l.cycles.OnExchange(rank, iter, exchangeMs)
		l.cycles.OnCycle(rank, iter, cycle)
	}
	if l.rec != nil {
		args := map[string]any{"iter": iter}
		if l.ftEpoch != nil {
			args["epoch"] = *l.ftEpoch
		}
		l.rec.Span("cycle", rank, startMs, cycle, args)
	}
}
