package obs

// CycleSink receives per-task per-cycle runtime observations as they
// happen, in contrast to the Registry's aggregated histograms. The stencil
// cycle driver calls it once per rank per cycle, from the one place that
// also records the cycle histograms and span, on the simulated and the live
// runtimes alike; the drift monitor (internal/obs/drift) is the canonical
// implementation, comparing measured times against the estimator's
// predictions.
//
// Implementations must be safe for concurrent use: live runtimes call from
// one goroutine per rank. Calls must never panic a run — implementations
// follow the same nil-receiver-safe discipline as the rest of this
// package, and runtimes nil-guard the interface at each call site.
type CycleSink interface {
	// OnCycle reports one completed compute+communicate cycle: the task's
	// rank, the 0-based cycle index, the cycle's duration, and the part of
	// it spent on the border exchange (sends plus receive waits), in
	// milliseconds (virtual time on the simulated runtime, wall clock on
	// the live ones).
	OnCycle(task, cycle int, cycleMs, exchangeMs float64)
}
