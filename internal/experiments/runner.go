package experiments

import "runtime"

// This file is the parallel experiment engine. Experiments decompose into
// independent units (one simulator run, one search, one jitter level), and
// parallel.For fans those units out over a bounded worker pool while keeping
// the output deterministic: every unit writes only to its own index-addressed
// slot, and the caller assembles results in serial order afterward. With
// Jobs=1 the engine degenerates to the plain serial loop, and because the
// simulator runs in virtual time and the estimators are deterministic, the
// rendered output is byte-identical at every worker count.
//
// Workers never share estimator state: each unit builds its own estimator or
// clones one with (*core.Estimator).Clone, and Env itself is read-only for
// the duration of an experiment (Clone documents that contract).

// Jobs returns the worker count a zero value selects: GOMAXPROCS.
func defaultJobs() int { return runtime.GOMAXPROCS(0) }

// workers resolves the Env's Jobs setting to a concrete worker count.
func (e *Env) workers() int {
	if e.Jobs > 0 {
		return e.Jobs
	}
	return defaultJobs()
}

// Clone returns a copy of the Env for a worker goroutine. The copy is
// shallow: Net, Paper, Fitted, and Fits are shared, which is safe because
// experiments treat them as read-only (nothing in this package or in the
// estimator mutates a Network or a cost.Table after NewEnv returns).
func (e *Env) Clone() *Env {
	cp := *e
	return &cp
}
