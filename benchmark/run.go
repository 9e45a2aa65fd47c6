package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"netpart/internal/mmps"
	"netpart/internal/stencil"
	"netpart/internal/trace"
)

// runResult is one run of one workload: its metrics by name, the count of
// operations it executed and verified, and (traced runs) its ledgers.
type runResult struct {
	workload  string
	hash      string
	attempted int
	failed    int
	metrics   map[string]summary
	ledgers   []*ledger
	wall      time.Duration
}

// setupRepeats is how many times set-up runs in an untraced run; setup_s
// is the fastest.
const setupRepeats = 5

// shares splits a run's seconds between the three stages. Most go to the
// stage the workload exists for; of the rest the decision stage needs
// least, because a pass of it is a millisecond and its fastest pass settles
// quickly, and the simulated stage most, because its allocation-bound
// passes are the noisiest thing measured here.
func shares(w *workloadDef) (decide, sim, live float64) {
	switch w.Native {
	case "decision_us":
		return 0.6, 0.2, 0.2
	case "sim_pass_s":
		return 0.05, 0.8, 0.15
	default:
		return 0.05, 0.25, 0.7
	}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runUntraced measures the end-to-end metrics with tracing off.
func runUntraced(w *workloadDef, seed int64, secs float64, sc scale, root string) (*runResult, error) {
	start := time.Now()
	var in *inputs
	var st *state
	var setupS []float64
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		if in, err = generate(w.Name, seed, sc); err != nil {
			return nil, err
		}
		if st, err = setUp(in, sc, root, false); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer st.close()

	dShare, sShare, lShare := shares(w)
	live := newLiveStage(st, st.plainRun(in.anchor.v))
	live.measure(st.world, seconds(secs*lShare), nil)
	decide := newDecideStage(st)
	decide.run(seconds(secs*dShare), nil)
	sim := newSimStage(st)
	sim.run(seconds(secs*sShare), nil)
	q, err := sim.quality()
	if err != nil {
		return nil, err
	}

	res := &runResult{
		workload:  w.Name,
		hash:      in.hash,
		attempted: decide.attempted + sim.attempted + live.attempted,
		failed:    decide.failed + sim.failed + live.failed,
		metrics: map[string]summary{
			"setup_s":         summarize(setupS),
			"decision_us":     decide.decisionUs(),
			"sim_pass_s":      sim.simPassS(),
			"ms_per_cycle":    live.msPerCycle(),
			"est_err_pct_p50": exact(q.estErrP50),
			"est_err_pct_max": exact(q.estErrMax),
		},
	}
	res.wall = time.Since(start)
	return res, nil
}

// runTraced produces the per-layer metrics: every stage runs with spans
// recorded around each call into a layer, the workload's own stage also
// runs untraced for trace.overhead_pct, and the layers are then measured
// directly. Chrome traces go to outDir.
func runTraced(w *workloadDef, seed int64, secs float64, sc scale, root, outDir string) (*runResult, error) {
	start := time.Now()
	in, err := generate(w.Name, seed, sc)
	if err != nil {
		return nil, err
	}
	st, err := setUp(in, sc, root, true)
	if err != nil {
		return nil, err
	}
	defer st.close()
	out := make(map[string]summary)
	res := &runResult{workload: w.Name, hash: in.hash, metrics: out}
	epoch := time.Now()
	stageSecs := func(native bool) time.Duration {
		if native {
			return seconds(secs * 0.2)
		}
		return seconds(secs * 0.08)
	}

	// Live stage, through the timing decorator.
	a := in.anchor
	tw := newTracedWorld(st.world, a.cycles)
	tracedLive := newLiveStage(st, st.plainRun(a.v))
	tracedLive.tr = newTracer(1<<12, epoch)
	tracedLive.measure(tw.transports(), stageSecs(w.Native == "ms_per_cycle"), tw.rotate)
	if len(tracedLive.fullS) == 0 {
		return nil, fmt.Errorf("no traced live sample verified")
	}
	led := tw.ledger(minOf(tracedLive.fullS), a.cycles, runtime.GOMAXPROCS(0))
	out["mmps.msgs_per_cycle"] = exact(led.msgsPerCycle)
	out["mmps.bytes_per_cycle"] = exact(led.bytesPerCycle)
	out["mmps.send_ms_per_cycle"] = exact(led.sendMs)
	out["mmps.recv_wait_ms_per_cycle"] = exact(led.recvMs)
	out["mmps.send_us_p50"] = exact(median(led.sendUs))
	out["mmps.recv_wait_us_p50"] = exact(median(led.recvUs))
	out["stencil.outside_transport_ms_per_cycle"] = exact(led.outsidePerThreadMs)
	out["live.unaccounted_pct"] = exact(100 * led.unaccMs / led.elapsedMs)
	res.ledgers = append(res.ledgers, &ledger{
		title: fmt.Sprintf("stencil.RunLive Elapsed per cycle, fastest traced sample of %d cycles, mean rank (ms)", a.cycles),
		total: led.elapsedMs,
		rows: []ledgerRow{
			{"outside transport calls: kernel + halo codec", led.outsideMs},
			{"mmps Send", led.sendMs},
			{"mmps Recv, blocked included", led.recvMs},
		},
		note: "unaccounted is before a rank's first and after its last transport call: spawn, block allocation, last border rows, assembly",
	})
	tracedMs := tracedLive.msPerCycle().Value
	res.attempted += tracedLive.attempted
	res.failed += tracedLive.failed

	// The plain figure the variants and the overhead are measured against.
	plain := newLiveStage(st, st.plainRun(a.v))
	plain.measure(st.world, stageSecs(w.Native == "ms_per_cycle"), nil)
	plainMs := plain.msPerCycle().Value
	out["stencil.run_intercept_ms"] = exact(plain.interceptMs())
	res.attempted += plain.attempted
	res.failed += plain.failed

	initial := stencil.NewGrid(a.liveN)
	seqS, err := bestOf(microBudget(secs), 1, func() error { stencil.Sequential(initial, baseCycles); return nil })
	if err != nil {
		return nil, err
	}
	out["stencil.sequential_ms_per_iter"] = exact(seqS / baseCycles * 1e3)
	out["stencil.speedup_vs_sequential"] = exact(seqS / baseCycles * 1e3 / plainMs)
	allocBase, allocFull, err := liveAllocs(st, a.cycles)
	if err != nil {
		return nil, err
	}
	out["stencil.alloc_bytes_per_cycle"] = exact((allocFull - allocBase) / float64(a.cycles-baseCycles))

	// Decision stage.
	decideTr := newTracer(1<<16, epoch)
	tracedDecide := newDecideStage(st)
	marks := tracedDecide.run(stageSecs(w.Native == "decision_us"), decideTr)
	res.ledgers = append(res.ledgers, decideLedger(decideTr, marks, tracedDecide.perPass(), out))
	regret, err := tracedDecide.regretPctMax()
	if err != nil {
		return nil, err
	}
	out["decision_regret_pct_max"] = exact(regret)

	// Simulated stage.
	simTr := newTracer(1<<14, epoch)
	tracedSim := newSimStage(st)
	tracedSim.run(stageSecs(w.Native == "sim_pass_s"), simTr)
	q, err := tracedSim.quality()
	if err != nil {
		return nil, err
	}
	out["pred_gap_pct_max"] = exact(q.predGapMax)
	if tracedSim.paper {
		i := argMin(tracedSim.passes)
		res.ledgers = append(res.ledgers, &ledger{
			title: "sim-paper pass, the fastest traced one (s)",
			total: tracedSim.passes[i],
			rows: []ledgerRow{
				{"experiments.Table2", tracedSim.table2S[i]},
				{"experiments.Fig3", tracedSim.fig3S[i]},
				{"off-grid units: core.Decompose + stencil.RunSim", tracedSim.offgridS[i]},
			},
		})
	}

	// trace.overhead_pct: the workload's own metric, traced against untraced.
	switch w.Native {
	case "ms_per_cycle":
		out["trace.overhead_pct"] = exact(trace.DeviationPct(tracedMs, plainMs))
	case "decision_us":
		untraced := newDecideStage(st)
		untraced.run(stageSecs(true), nil)
		res.attempted += untraced.attempted
		res.failed += untraced.failed
		out["trace.overhead_pct"] = exact(trace.DeviationPct(minOf(tracedDecide.passes), minOf(untraced.passes)))
	case "sim_pass_s":
		untraced := newSimStage(st)
		untraced.run(stageSecs(true), nil)
		res.attempted += untraced.attempted
		res.failed += untraced.failed
		out["trace.overhead_pct"] = exact(trace.DeviationPct(minOf(tracedSim.passes), minOf(untraced.passes)))
	}

	// The layers, called directly.
	if err := coreLayer(st, tracedDecide, secs, out); err != nil {
		return nil, err
	}
	if err := costLayer(st, secs, out); err != nil {
		return nil, err
	}
	simLed, err := paperFixture(st, tracedSim, out)
	if err != nil {
		return nil, err
	}
	if simLed != nil {
		res.ledgers = append(res.ledgers, simLed)
	}
	if err := simLayers(st, secs, out); err != nil {
		return nil, err
	}
	if err := mmpsLayers(st, secs, out); err != nil {
		return nil, err
	}
	att, bad, err := liveVariants(st, plainMs, secs, out)
	if err != nil {
		return nil, err
	}
	// The traced stages are counted last: the layer measurements above ran
	// further verified passes on them.
	res.attempted += att + tracedDecide.attempted + tracedSim.attempted
	res.failed += bad + tracedDecide.failed + tracedSim.failed

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tracers := append([]*tracer{decideTr, simTr, tracedLive.tr}, tw.best...)
	for _, t := range tracers {
		if t.dropped > 0 {
			return nil, fmt.Errorf("a span buffer overflowed (%d spans dropped): the per-layer numbers would be short", t.dropped)
		}
	}
	if err := writeChromeTrace(filepath.Join(outDir, "trace-"+w.Name+".json"), tracers, 20000); err != nil {
		return nil, err
	}
	res.wall = time.Since(start)
	return res, nil
}

// decideLedger turns the decision stage's spans into the core layer's
// span-derived metrics and the decision ledger, both taken from the traced
// pass (marks delimit them) whose decisions were fastest in total.
func decideLedger(tr *tracer, marks []int, perPass int, out map[string]summary) *ledger {
	best, bestTotal := 0, 0.0
	for p := 0; p+1 < len(marks); p++ {
		if s := tr.total(spDecision, marks[p], marks[p+1]); p == 0 || s < bestTotal {
			best, bestTotal = p, s
		}
	}
	us := func(k spanKind) float64 {
		return tr.total(k, marks[best], marks[best+1]) / float64(perPass) * 1e6
	}
	out["core.new_estimator_us"] = exact(us(spNewEstimator))
	all := tr.durations(spDecision)
	sort.Float64s(all)
	out["core.decision_us_p99"] = exact(quantile(all, 0.99) * 1e6)
	return &ledger{
		title: "one decision, mean over the fastest traced pass (us)",
		total: us(spDecision),
		rows: []ledgerRow{
			{"core.NewEstimator", us(spNewEstimator)},
			{"core.Partition", us(spPartition)},
			{"vector check", us(spCheck)},
		},
		note: "unaccounted is the clock reads between spans",
	}
}

// liveAllocs returns the bytes allocated by one plain run at baseCycles
// and one at the anchor's cycle count.
func liveAllocs(st *state, cycles int) (base, full float64, err error) {
	run := st.plainRun(st.in.anchor.v)
	measure := func(world []mmps.Transport, c int) (float64, error) {
		before := totalAlloc()
		_, _, err := run(world, c)
		return float64(totalAlloc() - before), err
	}
	if base, err = measure(st.world, baseCycles); err != nil {
		return 0, 0, err
	}
	full, err = measure(st.world, cycles)
	return base, full, err
}
