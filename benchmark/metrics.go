package main

// metricDef declares one metric. The list below is the single source of
// names, units and bounds: the runs fill exactly these, BENCHMARK.json
// repeats them (bench_test.go checks), and the README tables explain them.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound, on end-to-end metrics, is the share of the parent's value by
	// which the metric may worsen before a change counts as a regression.
	Bound float64
	// AbsBound, on the exact quality metrics, is -compare's bound in
	// percentage points (a share of a value that may be 0 means nothing).
	AbsBound float64
}

// endToEnd are the metrics a user of netpart sees: how long set-up, a
// decision, a simulated evaluation and a live cycle take, and how far the
// estimator is from the simulated execution. Every workload reports all of
// them, on its own inputs.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "decision_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "sim_pass_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ms_per_cycle", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "est_err_pct_p50", Unit: "%", Better: "lower", Bound: 0.10, AbsBound: 0.1},
	{Name: "est_err_pct_max", Unit: "%", Better: "lower", Bound: 0.10, AbsBound: 0.1},
}

// perLayer are the traced run's metrics. The first two are end-to-end
// quality numbers whose ideal value is 0, which the driver's relative
// bounds cannot express; -compare holds them to AbsBound instead.
var perLayer = []metricDef{
	{Name: "decision_regret_pct_max", Unit: "%", Better: "lower", AbsBound: 0.1},
	{Name: "pred_gap_pct_max", Unit: "%", Better: "lower", AbsBound: 0.1},

	{Name: "core.new_estimator_us", Unit: "us", Better: "lower"},
	{Name: "core.partition_us", Unit: "us", Better: "lower"},
	{Name: "core.estimate_us", Unit: "us", Better: "lower"},
	{Name: "core.probe_ns", Unit: "ns", Better: "lower"},
	{Name: "core.decompose_us", Unit: "us", Better: "lower"},
	{Name: "core.evals_per_decision", Unit: "count", Better: "lower"},
	{Name: "core.alloc_bytes_per_decision", Unit: "B", Better: "lower"},
	{Name: "core.decision_us_p99", Unit: "us", Better: "lower"},
	{Name: "core.partition_observed_us", Unit: "us", Better: "lower"},
	{Name: "core.partition_global_us", Unit: "us", Better: "lower"},

	{Name: "cost.comm_cost_ns", Unit: "ns", Better: "lower"},
	{Name: "cost.fit_us", Unit: "us", Better: "lower"},
	{Name: "commbench.run_ms", Unit: "ms", Better: "lower"},
	{Name: "annspec.compile_us", Unit: "us", Better: "lower"},
	{Name: "repart.plan_us", Unit: "us", Better: "lower"},

	{Name: "experiments.table2_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig3_s", Unit: "s", Better: "lower"},
	{Name: "experiments.offgrid_s", Unit: "s", Better: "lower"},
	{Name: "experiments.table2_j2_s", Unit: "s", Better: "lower"},
	{Name: "experiments.alloc_mb_per_pass", Unit: "MB", Better: "lower"},

	{Name: "stencil.runsim_s_sum", Unit: "s", Better: "lower"},
	{Name: "stencil.runsim_alloc_mb_sum", Unit: "MB", Better: "lower"},
	{Name: "stencil.sequential_ms_n600", Unit: "ms", Better: "lower"},
	{Name: "stencil.kernel_gbps_computed", Unit: "GB/s", Better: "higher"},
	{Name: "stencil.newgrid_ms_n1200", Unit: "ms", Better: "lower"},

	{Name: "spmd.noop_task_cycle_us", Unit: "us", Better: "lower"},
	{Name: "simnet.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "simnet.msgs_per_pass", Unit: "count", Better: "lower"},
	{Name: "sim.unaccounted_pct", Unit: "%", Better: "lower"},

	{Name: "mmps.msgs_per_cycle", Unit: "count", Better: "lower"},
	{Name: "mmps.bytes_per_cycle", Unit: "B", Better: "lower"},
	{Name: "mmps.send_ms_per_cycle", Unit: "ms", Better: "lower"},
	{Name: "mmps.recv_wait_ms_per_cycle", Unit: "ms", Better: "lower"},
	{Name: "mmps.send_us_p50", Unit: "us", Better: "lower"},
	{Name: "mmps.recv_wait_us_p50", Unit: "us", Better: "lower"},
	{Name: "mmps.local_roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "mmps.udp_roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "mmps.codec_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "mmps.udp_retransmits", Unit: "count", Better: "lower"},

	{Name: "stencil.outside_transport_ms_per_cycle", Unit: "ms", Better: "lower"},
	{Name: "stencil.sequential_ms_per_iter", Unit: "ms", Better: "lower"},
	{Name: "stencil.speedup_vs_sequential", Unit: "x", Better: "higher"},
	{Name: "stencil.run_intercept_ms", Unit: "ms", Better: "lower"},
	{Name: "stencil.alloc_bytes_per_cycle", Unit: "B", Better: "lower"},
	{Name: "stencil.observed_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "stencil.sten1_ms_per_cycle", Unit: "ms", Better: "lower"},
	{Name: "stencil.overlap_gain_pct", Unit: "%", Better: "higher"},
	{Name: "stencil.adaptive_idle_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "stencil.ft_idle_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "live.unaccounted_pct", Unit: "%", Better: "lower"},

	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// workloadDef names a workload and records why it exists.
type workloadDef struct {
	Name   string
	Native string // the end-to-end metric most of a run's seconds go to
	Why    string
}

var workloads = []workloadDef{
	{"decide-sweep", "decision_us", "256 seeded decisions over 8 fitted networks and 5 annotation families: only core/cost work, the paper's amortized-overhead claim"},
	{"sim-paper", "sim_pass_s", "Table 2 + Fig. 3 + 16 seeded off-grid units in virtual time: experiments, RunSim, spmd, simnet; allocation-bound"},
	{"live-kernel", "ms_per_cycle", "4 ranks in memory, STEN-2, N about 1024, heterogeneous Eq. 3 vector: kernel-bound, halos about 1 % of a cycle"},
	{"live-exchange-local", "ms_per_cycle", "4 ranks in memory, STEN-1, N about 64: exchange-bound, about 1 us of compute per rank per cycle"},
	{"live-udp-overlap", "ms_per_cycle", "4 ranks over loopback UDP, STEN-2, N about 512: 4 KB halos fragment in 3, acks and timers run, compute about equals communication"},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// ledgerRow is one accounted layer of a ledger.
type ledgerRow struct {
	name  string
	value float64
}

// ledger states end-to-end = Σ layers + unaccounted for one measured total.
type ledger struct {
	title string
	total float64
	rows  []ledgerRow
	note  string
}

func (l *ledger) unaccounted() float64 {
	u := l.total
	for _, r := range l.rows {
		u -= r.value
	}
	return u
}
