package experiments

import (
	"runtime"

	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/model"
	"netpart/internal/parallel"
	"netpart/internal/simnet"
	"netpart/internal/stencil"
)

// This file is the paper's procedure (§6) written once, and the parallel
// experiment engine that runs its cases. decide prices with Eq. 4–6 from a
// fitted cost table; step adds the run of the configuration, a time-only
// simulation, to compare the prediction with.
//
// Experiments decompose into independent units (one simulator run, one
// search, one jitter level), and fanOut spreads those units over a bounded
// worker pool while keeping the output deterministic: every unit writes
// only to its own index-addressed slot, and the caller assembles results in
// serial order afterward. With Jobs=1 the engine degenerates to the plain
// serial loop, and because the simulator runs in virtual time and the
// estimators are deterministic, the rendered output is byte-identical at
// every worker count.
//
// Workers never share estimator state: decide builds a fresh estimator per
// search, and Env itself is read-only for the duration of an experiment
// (Clone documents that contract).

// workers resolves the Env's Jobs setting to a concrete worker count; zero
// selects GOMAXPROCS.
func (e *Env) workers() int {
	if e.Jobs > 0 {
		return e.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// Clone returns a copy of the Env for a worker goroutine. The copy is
// shallow: Net, Paper, Fitted, and Fits are shared, which is safe because
// experiments treat them as read-only (nothing in this package or in the
// estimator mutates a Network or a cost.Table after NewEnv returns).
func (e *Env) Clone() *Env {
	cp := *e
	return &cp
}

// fanOut runs unit(i) for every i in [0, n) on the Env's worker pool, each
// on its own clone of the Env, and returns the rows in index order.
func fanOut[T any](e *Env, n int, unit func(e *Env, i int) (T, error)) ([]T, error) {
	rows := make([]T, n)
	err := parallel.For(e.workers(), n, func(i int) error {
		var err error
		rows[i], err = unit(e.Clone(), i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// search is a partitioning strategy run on an estimator (core.Partition,
// core.PartitionExhaustive, ...).
type search = func(*core.Estimator) (core.Result, error)

// decide runs each search on a fresh estimator of ann on net under tbl and
// returns their results in order.
func decide(net *model.Network, tbl *cost.Table, ann *core.Annotations, searches ...search) ([]core.Result, error) {
	out := make([]core.Result, len(searches))
	for i, s := range searches {
		est, err := core.NewEstimator(net, tbl, ann)
		if err != nil {
			return nil, err
		}
		if out[i], err = s(est); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// estimate is the search that prices cfg alone: its Estimate, no vector.
func estimate(cfg cost.Config) search {
	return func(est *core.Estimator) (core.Result, error) {
		pe, err := est.Estimate(cfg)
		return core.Result{Estimate: pe}, err
	}
}

// A run is one time-only stencil simulation: its elapsed virtual time, and
// per rank the simulator's statistics (compute time among them) and the
// exchange time the cycle sink reports (sends plus border waits), in ms
// over the whole run.
type run struct {
	ms         float64
	procs      []simnet.ProcStats
	exchangeMs exchangeSum
}

// exchangeSum is a cycle sink that adds up each rank's exchange time; a
// rank writes only its own slot.
type exchangeSum []float64

func (s exchangeSum) OnCycle(task, _ int, _, exchangeMs float64) { s[task] += exchangeMs }

// step is one case of the procedure on a stencil of n rows of variant v:
// under tbl, the estimate of cfg or, when cfg names no cluster, the
// locality-first search's decision; then a time-only run of that
// configuration on vec (the Eq. 3 vector when nil) with the simulator
// options opts. A nil tbl predicts nothing and runs cfg.
func step(net *model.Network, tbl *cost.Table, n int, v stencil.Variant, cfg cost.Config, vec core.Vector, opts ...simnet.Option) (core.Result, run, error) {
	var pred core.Result
	if tbl != nil {
		s := core.Partition
		if cfg.Clusters != nil {
			s = estimate(cfg)
		}
		res, err := decide(net, tbl, stencil.Annotations(n, v, Iterations), s)
		if err != nil {
			return pred, run{}, err
		}
		pred, cfg = res[0], res[0].Config
	}
	if vec == nil {
		var err error
		if vec, err = core.Decompose(net, cfg, n, model.OpFloat); err != nil {
			return pred, run{}, err
		}
	}
	sink := make(exchangeSum, len(vec))
	res, err := stencil.Sim(net, cfg, vec, v, n, Iterations, stencil.Options{TimeOnly: true, Cycles: sink, SimOptions: opts})
	return pred, run{ms: res.ElapsedMs, procs: res.Report.Procs, exchangeMs: sink}, err
}

// terms are one configuration's per-cycle T_comp, T_comm and T_c, in ms.
type terms struct{ comp, comm, c float64 }

// residual is E29's reading of one predicted-and-simulated configuration:
// the estimate's terms, and those of the simulated rank with the most
// compute (the lowest such rank on a tie), whose neighbours wait for it and
// whose exchange time is therefore the least padded by waiting.
type residual struct {
	rank      int
	pred, sim terms
}

// read takes E29's reading of the run against the estimate pred.
func (r run) read(pred core.Estimate) residual {
	rank := 0
	for i := range r.procs {
		if r.procs[i].ComputeMs > r.procs[rank].ComputeMs {
			rank = i
		}
	}
	const it = Iterations
	return residual{
		rank: rank,
		pred: terms{pred.TcompMs, pred.TcommMs, pred.TcMs},
		sim:  terms{r.procs[rank].ComputeMs / it, r.exchangeMs[rank] / it, r.ms / it},
	}
}
