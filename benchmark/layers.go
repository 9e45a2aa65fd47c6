package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"netpart/internal/annspec"
	"netpart/internal/commbench"
	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/experiments"
	"netpart/internal/mmps"
	"netpart/internal/model"
	"netpart/internal/obs"
	"netpart/internal/obs/drift"
	"netpart/internal/repart"
	"netpart/internal/simnet"
	"netpart/internal/spmd"
	"netpart/internal/stencil"
	"netpart/internal/topo"
	"netpart/internal/trace"
)

// This file holds the per-layer measurements that do not come out of a
// stage's spans: each calls one layer's public functions directly, in
// batches, and keeps the fastest batch (see summary for why the fastest).

// bestOf runs fn in batches until the budget is spent (at least three
// batches) and returns the fastest batch's seconds per call.
func bestOf(budget time.Duration, batch int, fn func() error) (float64, error) {
	deadline := time.Now().Add(budget)
	best := 0.0
	for n := 0; n < 3 || time.Now().Before(deadline); n++ {
		start := time.Now()
		for i := 0; i < batch; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		if s := time.Since(start).Seconds() / float64(batch); n == 0 || s < best {
			best = s
		}
	}
	return best, nil
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// microBudget is what each direct layer measurement may spend.
func microBudget(seconds float64) time.Duration {
	return time.Duration(seconds * 0.008 * float64(time.Second))
}

// coreLayer measures internal/core below the whole decision, on the
// workload's own instances.
func coreLayer(st *state, d *decideStage, seconds float64, out map[string]summary) error {
	insts := st.in.decide
	budget := microBudget(seconds)
	ests := make([]*core.Estimator, len(insts))
	for i := range insts {
		est, err := core.NewEstimator(st.net(insts[i].net), st.tables[insts[i].net], insts[i].ann)
		if err != nil {
			return err
		}
		ests[i] = est
	}
	perInst := func(fn func(i int) error) (float64, error) {
		s, err := bestOf(budget, 1, func() error {
			for i := range insts {
				if err := fn(i); err != nil {
					return err
				}
			}
			return nil
		})
		return s / float64(len(insts)), err
	}

	s, err := perInst(func(i int) error { _, err := core.Partition(ests[i]); return err })
	if err != nil {
		return err
	}
	out["core.partition_us"] = exact(s * 1e6)

	if s, err = perInst(func(i int) error { _, err := ests[i].Estimate(d.last[i].Config); return err }); err != nil {
		return err
	}
	out["core.estimate_us"] = exact(s * 1e6)

	if s, err = perInst(func(i int) error {
		_, err := core.Decompose(st.net(insts[i].net), d.last[i].Config, insts[i].pdus, insts[i].ann.DominantCompute().Class)
		return err
	}); err != nil {
		return err
	}
	out["core.decompose_us"] = exact(s * 1e6)

	search := &core.SearchTrace{}
	for _, est := range ests {
		est.Observer = search
	}
	if s, err = perInst(func(i int) error {
		search.Reset()
		_, err := core.Partition(ests[i])
		return err
	}); err != nil {
		return err
	}
	out["core.partition_observed_us"] = exact(s * 1e6)
	for _, est := range ests {
		est.Observer = nil
	}

	if s, err = perInst(func(i int) error { _, err := core.PartitionGlobal(ests[i]); return err }); err != nil {
		return err
	}
	out["core.partition_global_us"] = exact(s * 1e6)

	// One warm delta-evaluated probe: the unit of work of every search.
	a := st.in.anchor
	est, err := core.NewEstimator(st.env.Net, st.env.Fitted, stencil.Annotations(a.n, a.v, experiments.Iterations))
	if err != nil {
		return err
	}
	delta, err := est.BeginDelta(experiments.PaperConfig(6, 0))
	if err != nil {
		return err
	}
	p := 0
	if s, err = bestOf(budget, 2000, func() error {
		p++
		_, err := delta.Probe(1, 1+p%6)
		return err
	}); err != nil {
		return err
	}
	out["core.probe_ns"] = exact(s * 1e9)

	before := totalAlloc()
	d.pass(nil)
	out["core.alloc_bytes_per_decision"] = exact(float64(totalAlloc()-before) / float64(d.perPass()))
	out["core.evals_per_decision"] = exact(d.evalsPerDecision())
	return nil
}

// costLayer measures the layers a decision and its set-up rest on.
func costLayer(st *state, seconds float64, out map[string]summary) error {
	budget := microBudget(seconds)
	a := st.in.anchor
	b := float64(stencil.BytesPerPoint * a.n)
	cfg := experiments.PaperConfig(6, 6)
	s, err := bestOf(budget, 2000, func() error {
		_, err := st.env.Fitted.CommCost(st.env.Net, topo.OneD{}, b, cfg)
		return err
	})
	if err != nil {
		return err
	}
	out["cost.comm_cost_ns"] = exact(s * 1e9)

	truth := cost.Params{C1: 0.3, C2: 1.1, C3: -0.0055, C4: 0.00283}
	var obsv []cost.Observation
	for p := 2; p <= 6; p++ {
		for _, sz := range commbench.DefaultGrid().Bytes {
			obsv = append(obsv, cost.Observation{B: float64(sz), P: p, Ms: truth.Eval(float64(sz), p)})
		}
	}
	if s, err = bestOf(budget, 200, func() error { _, err := cost.Fit(obsv); return err }); err != nil {
		return err
	}
	out["cost.fit_us"] = exact(s * 1e6)

	if s, err = bestOf(budget, 1, func() error {
		_, err := commbench.Run(st.env.Net, []topo.Topology{topo.OneD{}}, commbench.DefaultGrid())
		return err
	}); err != nil {
		return err
	}
	out["commbench.run_ms"] = exact(s * 1e3)

	if s, err = bestOf(budget, 50, func() error {
		_, err := annspec.CompileReader(bytes.NewReader(st.spec))
		return err
	}); err != nil {
		return err
	}
	out["annspec.compile_us"] = exact(s * 1e6)

	// The repartition decision rank 0 makes while every rank waits, P = 16.
	planner := repart.NewPlanner(repart.PlannerConfig{
		Mig: cost.Migration{PerMoveMs: 0.05, PerByteMs: 1e-6, RowBytes: 8 * 1024},
	})
	cur := make(core.Vector, 16)
	measured := make([]float64, 16)
	for i := range cur {
		cur[i] = 64
		measured[i] = float64(64 + 13*i%37)
	}
	cycle := 0
	if s, err = bestOf(budget, 50, func() error {
		cycle++
		if plan := planner.Plan(cycle, "bench", cur, measured); plan.New.Sum() != cur.Sum() {
			return fmt.Errorf("repart plan changed the row total")
		}
		return nil
	}); err != nil {
		return err
	}
	out["repart.plan_us"] = exact(s * 1e6)
	return nil
}

// paperFixture runs the paper's evaluation once from outside — Table 2,
// Fig. 3, Table 2 on the parallel engine, and Table 2's 56 measured units
// called directly — for the experiments/stencil/simnet layer numbers and
// the simulated ledger. sim supplies table2_s/fig3_s/offgrid_s when the
// workload's own passes already ran them (sim-paper).
func paperFixture(st *state, sim *simStage, out map[string]summary) (*ledger, error) {
	out["experiments.offgrid_s"] = exact(minOf(sim.offgridS))
	if !st.sc.paper {
		// tiny scale: the paper's sizes do not shrink, so the fixture is
		// skipped and its metrics read zero.
		for _, name := range []string{"experiments.table2_s", "experiments.fig3_s", "experiments.table2_j2_s",
			"experiments.alloc_mb_per_pass", "stencil.runsim_s_sum", "stencil.runsim_alloc_mb_sum", "sim.unaccounted_pct"} {
			out[name] = exact(0)
		}
		var msgs int64
		for _, m := range sim.unitMsgs {
			msgs += m
		}
		out["simnet.msgs_per_pass"] = exact(float64(msgs))
		return nil, nil
	}

	var table2S, fig3S, allocMB float64
	var rows []experiments.Table2Row
	if sim.paper {
		table2S, fig3S, rows = minOf(sim.table2S), minOf(sim.fig3S), sim.rows
		before := totalAlloc()
		sim.pass(nil)
		allocMB = float64(totalAlloc()-before) / 1e6
	} else {
		before := totalAlloc()
		start := time.Now()
		var err error
		if rows, err = experiments.Table2(st.env); err != nil {
			return nil, err
		}
		table2S = time.Since(start).Seconds()
		start = time.Now()
		if _, err = experiments.Fig3(st.env, 600, stencil.STEN1); err != nil {
			return nil, err
		}
		fig3S = time.Since(start).Seconds()
		allocMB = float64(totalAlloc()-before) / 1e6
	}
	out["experiments.table2_s"] = exact(table2S)
	out["experiments.fig3_s"] = exact(fig3S)
	out["experiments.alloc_mb_per_pass"] = exact(allocMB)

	par := st.env.Clone()
	par.Jobs = 2
	start := time.Now()
	if _, err := experiments.Table2(par); err != nil {
		return nil, err
	}
	out["experiments.table2_j2_s"] = exact(time.Since(start).Seconds())

	// Table 2's 56 measured units, called directly: what of table2_s is
	// stencil.RunSim, and what is the searches.
	var runSimS, partitionS float64
	var msgs int64
	before := totalAlloc()
	for _, row := range rows {
		for _, c := range row.Cells {
			cfg := experiments.PaperConfig(c.P1, c.P2)
			vec, err := core.Decompose(st.env.Net, cfg, row.N, model.OpFloat)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			res, err := stencil.RunSim(st.env.Net, cfg, vec, row.Variant, row.N, experiments.Iterations)
			runSimS += time.Since(start).Seconds()
			if err != nil {
				return nil, err
			}
			if res.ElapsedMs != c.ElapsedMs || !sameGrid(res.Grid, st.ref(row.N, experiments.Iterations)) {
				return nil, fmt.Errorf("direct RunSim N=%d %s (%d,%d) disagrees with Table 2 or the reference", row.N, row.Variant, c.P1, c.P2)
			}
			msgs += msgsOf(res)
		}
	}
	out["stencil.runsim_alloc_mb_sum"] = exact(float64(totalAlloc()-before) / 1e6)
	for _, row := range rows {
		start := time.Now()
		est, err := core.NewEstimator(st.env.Net, st.env.Fitted, stencil.Annotations(row.N, row.Variant, experiments.Iterations))
		if err != nil {
			return nil, err
		}
		if _, err := core.Partition(est); err != nil {
			return nil, err
		}
		partitionS += time.Since(start).Seconds()
	}
	out["stencil.runsim_s_sum"] = exact(runSimS)
	out["simnet.msgs_per_pass"] = exact(float64(msgs))
	unacc := table2S - runSimS - partitionS
	out["sim.unaccounted_pct"] = exact(100 * unacc / table2S)
	return &ledger{
		title: "experiments.Table2, one call (s)", total: table2S,
		rows: []ledgerRow{
			{"stencil.RunSim, the 56 measured units called directly", runSimS},
			{"core.NewEstimator + core.Partition, the 8 rows", partitionS},
		},
		note: "unaccounted holds Table 2's other units (N=1200 equal split, predictions outside the set), core.Decompose and assembly",
	}, nil
}

// simLayers measures the stencil kernel and the simulator substrates alone.
func simLayers(st *state, seconds float64, out map[string]summary) error {
	budget := microBudget(seconds)
	n600, n1200 := 600/st.sc.shrinkAnchorN, 1200/st.sc.shrinkAnchorN
	grid := stencil.NewGrid(n600)
	const iters = 10
	s, err := bestOf(budget, 1, func() error { stencil.Sequential(grid, iters); return nil })
	if err != nil {
		return err
	}
	out["stencil.sequential_ms_n600"] = exact(s / iters * 1e3)
	// Computed, not measured, traffic: two 8-byte grids touched per point.
	out["stencil.kernel_gbps_computed"] = exact(16 * float64(n600) * float64(n600) / (s / iters) / 1e9)
	if s, err = bestOf(budget, 1, func() error { stencil.NewGrid(n1200); return nil }); err != nil {
		return err
	}
	out["stencil.newgrid_ms_n1200"] = exact(s * 1e3)

	// spmd alone: 12 tasks whose body is the border exchange and nothing else.
	const cycles = 50
	cfg := experiments.PaperConfig(6, 6)
	pl, err := topo.Contiguous(cfg.Active())
	if err != nil {
		return err
	}
	vec := make(core.Vector, pl.NumTasks())
	for i := range vec {
		vec[i] = 1
	}
	job := spmd.Job{Net: st.env.Net, Placement: pl, Vector: vec, Topology: topo.OneD{}, Body: func(t *spmd.Task) {
		for c := 0; c < cycles; c++ {
			t.ExchangeBorders(64, nil)
			t.EndCycle()
		}
	}}
	if s, err = bestOf(budget, 1, func() error { _, err := spmd.Run(job); return err }); err != nil {
		return err
	}
	out["spmd.noop_task_cycle_us"] = exact(s / (cycles * float64(pl.NumTasks())) * 1e6)

	// simnet alone: 12 procs in a ring, each cycle one Send, one Recv, one Advance.
	const procs = 12
	if s, err = bestOf(budget, 1, func() error {
		sim, err := simnet.New(st.env.Net)
		if err != nil {
			return err
		}
		ring := make([]*simnet.Proc, procs)
		for i := 0; i < procs; i++ {
			i := i
			cluster := model.Sparc2Cluster
			if i >= procs/2 {
				cluster = model.IPCCluster
			}
			ring[i] = sim.Spawn(fmt.Sprintf("ring-%d", i), cluster, func(p *simnet.Proc) {
				for c := 0; c < cycles; c++ {
					p.Send(ring[(i+1)%procs], 64, nil)
					p.Recv(ring[(i+procs-1)%procs])
					p.Advance(0.01)
				}
			})
		}
		return sim.Run()
	}); err != nil {
		return err
	}
	out["simnet.events_per_s"] = exact(3 * cycles * procs / s)
	return nil
}

// pingPong returns the fastest round trip, in seconds, of a payload of the
// anchor's halo size between two endpoints of a fresh world of the given
// kind. The echo goroutine ends when its endpoint is closed, and is waited
// for.
func pingPong(kind string, payloadBytes int, budget time.Duration) (float64, error) {
	world, err := newWorld(kind, 2)
	if err != nil {
		return 0, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			buf, err := world[1].Recv(0)
			if err != nil {
				return
			}
			if err := world[1].Send(0, buf); err != nil {
				return
			}
			mmps.Recycle(world[1], buf)
		}
	}()
	payload := make([]byte, payloadBytes)
	s, err := bestOf(budget, 200, func() error {
		if err := world[0].Send(1, payload); err != nil {
			return err
		}
		buf, err := world[0].Recv(1)
		if err != nil {
			return err
		}
		mmps.Recycle(world[0], buf)
		return nil
	})
	closeWorld(world)
	<-done
	return s, err
}

func mmpsLayers(st *state, seconds float64, out map[string]summary) error {
	budget := microBudget(seconds)
	n := st.in.anchor.liveN
	halo := 8 + 8*n
	for _, kind := range []string{"local", "udp"} {
		s, err := pingPong(kind, halo, budget)
		if err != nil {
			return err
		}
		out["mmps."+kind+"_roundtrip_us"] = exact(s * 1e6)
	}
	row := make([]float64, n)
	for i := range row {
		row[i] = float64(i) * 0.5
	}
	buf := make([]byte, 0, 8*n)
	vals := make([]float64, 0, n)
	s, err := bestOf(budget, 500, func() error {
		buf = mmps.AppendFloat64s(buf[:0], row)
		var err error
		vals, err = mmps.DecodeFloat64sInto(vals[:0], buf)
		return err
	})
	if err != nil {
		return err
	}
	out["mmps.codec_ns_per_row"] = exact(s * 1e9)
	out["mmps.udp_retransmits"] = exact(float64(st.reg.Counter(mmps.MetricRetransmits).Value()))
	return nil
}

// liveVariants measures the other drivers of internal/stencil on the
// anchor's inputs, each over a fresh world of the anchor's kind, against
// the plain RunLive figure: the other STEN variant (Eq. 6's overlap), the
// monitored driver (registry + drift monitor), and the adaptive and
// fault-tolerant drivers with nothing to adapt to or recover from.
func liveVariants(st *state, plainMs, seconds float64, out map[string]summary) (int, int, error) {
	a := st.in.anchor
	budget := time.Duration(seconds * 0.04 * float64(time.Second))
	attempted, failed := 0, 0
	measure := func(run liveRun) (float64, error) {
		world, err := newWorld(a.transport, liveRanks)
		if err != nil {
			return 0, err
		}
		defer closeWorld(world)
		l := newLiveStage(st, run)
		l.measure(world, budget, nil)
		attempted += l.attempted
		failed += l.failed
		return l.msPerCycle().Value, nil
	}

	other := stencil.STEN1
	if a.v == stencil.STEN1 {
		other = stencil.STEN2
	}
	otherMs, err := measure(st.plainRun(other))
	if err != nil {
		return attempted, failed, err
	}
	sten1, sten2 := otherMs, plainMs
	if a.v == stencil.STEN1 {
		sten1, sten2 = plainMs, otherMs
	}
	out["stencil.sten1_ms_per_cycle"] = exact(sten1)
	out["stencil.overlap_gain_pct"] = exact(-trace.DeviationPct(sten2, sten1))

	est, err := core.NewEstimator(st.env.Net, st.env.Fitted, stencil.Annotations(a.n, a.v, a.cycles))
	if err != nil {
		return attempted, failed, err
	}
	pred, err := est.Estimate(experiments.PaperConfig(2, 2))
	if err != nil {
		return attempted, failed, err
	}
	monitoredMs, err := measure(func(world []mmps.Transport, cycles int) (time.Duration, [][]float64, error) {
		reg := obs.NewRegistry()
		mon := drift.New(drift.Config{PredCycleMs: pred.TcompMs + pred.TcommMs, PredCommMs: pred.TcommMs}, reg, nil)
		res, err := stencil.RunLiveMonitored(world, st.vec, a.v, a.liveN, cycles, a.workFactor, reg, nil, mon)
		return res.Elapsed, res.Grid, err
	})
	if err != nil {
		return attempted, failed, err
	}
	out["stencil.observed_overhead_pct"] = exact(trace.DeviationPct(monitoredMs, plainMs))

	adaptiveMs, err := measure(func(world []mmps.Transport, cycles int) (time.Duration, [][]float64, error) {
		res, err := stencil.RunLiveAdaptive(world, st.vec, a.v, a.liveN, cycles, stencil.LiveAdaptiveOptions{WorkFactor: a.workFactor})
		return res.Elapsed, res.Grid, err
	})
	if err != nil {
		return attempted, failed, err
	}
	out["stencil.adaptive_idle_overhead_pct"] = exact(trace.DeviationPct(adaptiveMs, plainMs))

	ftMs, err := measure(func(world []mmps.Transport, cycles int) (time.Duration, [][]float64, error) {
		res, err := stencil.RunLiveFT(world, st.vec, a.v, a.liveN, cycles, stencil.FTOptions{WorkFactor: a.workFactor})
		return res.Elapsed, res.Grid, err
	})
	if err != nil {
		return attempted, failed, err
	}
	out["stencil.ft_idle_overhead_pct"] = exact(trace.DeviationPct(ftMs, plainMs))
	return attempted, failed, nil
}
