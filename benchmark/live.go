package main

import (
	"time"

	"netpart/internal/mmps"
	"netpart/internal/stencil"
)

// liveRun is one live execution of the anchor for the given cycle count
// over the given world; the live stage is generic over it so that the
// plain, monitored, adaptive and fault-tolerant drivers are all measured
// the same way.
type liveRun func(world []mmps.Transport, cycles int) (time.Duration, [][]float64, error)

// liveStage measures steady-state ms/cycle with set-up excluded from
// outside: RunLive's own Elapsed at I cycles, minus its Elapsed at
// baseCycles (allocation, spawn, first touch, assembly), over I−baseCycles.
type liveStage struct {
	st        *state
	run       liveRun
	tr        *tracer // when non-nil, one span per run
	attempted int
	failed    int
	baseS     []float64 // Elapsed of the baseCycles runs, seconds
	fullS     []float64 // Elapsed of the I-cycle runs, seconds
}

const baseSamples = 5

func (st *state) plainRun(v stencil.Variant) liveRun {
	a := st.in.anchor
	return func(world []mmps.Transport, cycles int) (time.Duration, [][]float64, error) {
		res, err := stencil.RunLive(world, st.vec, v, a.liveN, cycles, a.workFactor)
		return res.Elapsed, res.Grid, err
	}
}

func newLiveStage(st *state, run liveRun) *liveStage { return &liveStage{st: st, run: run} }

// sample runs once and verifies the grid bit-for-bit (untimed: Elapsed is
// taken inside the driver).
func (l *liveStage) sample(world []mmps.Transport, cycles int) (float64, bool) {
	sp := l.tr.begin(spRunLive, int32(l.attempted), -1)
	elapsed, grid, err := l.run(world, cycles)
	l.tr.end(sp)
	l.attempted++
	ok := err == nil && sameGrid(grid, l.st.ref(l.st.in.anchor.liveN, cycles))
	if !ok {
		l.failed++
	}
	return elapsed.Seconds(), ok
}

// measure takes the baseline samples, then I-cycle samples until the
// budget is spent (at least three). after, when non-nil, is called after
// every sample and told whether it was the fastest I-cycle sample so far.
func (l *liveStage) measure(world []mmps.Transport, budget time.Duration, after func(best bool)) {
	deadline := time.Now().Add(budget)
	for i := 0; i < baseSamples; i++ {
		if s, ok := l.sample(world, baseCycles); ok {
			l.baseS = append(l.baseS, s)
		}
		if after != nil {
			after(false)
		}
	}
	cycles := l.st.in.anchor.cycles
	for n := 0; n < 3 || time.Now().Before(deadline); n++ {
		s, ok := l.sample(world, cycles)
		best := ok && (len(l.fullS) == 0 || s < minOf(l.fullS))
		if ok {
			l.fullS = append(l.fullS, s)
		}
		if after != nil {
			after(best)
		}
	}
}

func (l *liveStage) steadyCycles() float64 { return float64(l.st.in.anchor.cycles - baseCycles) }

// msPerCycle is the end-to-end metric. Every I-cycle sample has the
// fastest baseline subtracted, and the headline is the fastest of those.
func (l *liveStage) msPerCycle() summary {
	if len(l.baseS) == 0 || len(l.fullS) == 0 {
		return summary{}
	}
	base := minOf(l.baseS)
	per := make([]float64, len(l.fullS))
	for i, s := range l.fullS {
		per[i] = (s - base) / l.steadyCycles() * 1e3
	}
	return summarize(per)
}

// interceptMs is what RunLive costs beyond its cycles: Elapsed at
// baseCycles minus baseCycles steady-state cycles.
func (l *liveStage) interceptMs() float64 {
	if len(l.baseS) == 0 {
		return 0
	}
	return minOf(l.baseS)*1e3 - baseCycles*l.msPerCycle().Value
}

// tracedWorld wraps every endpoint of a world in the timing decorator,
// each rank with two preallocated span buffers: the one being recorded
// into and the one holding the fastest sample so far.
type tracedWorld struct {
	ends []*timedTransport
	best []*tracer
	// msgs/bytes of the fastest sample, whole world.
	bestMsgs, bestBytes int64
}

func newTracedWorld(world []mmps.Transport, cycles int) *tracedWorld {
	epoch := time.Now()
	tw := &tracedWorld{}
	for _, t := range world {
		// At most two sends and two receives per rank per cycle.
		capacity := 4*cycles + 64
		tw.ends = append(tw.ends, &timedTransport{inner: t, tr: newTracer(capacity, epoch)})
		tw.best = append(tw.best, newTracer(capacity, epoch))
	}
	return tw
}

func (tw *tracedWorld) transports() []mmps.Transport { return asTransports(tw.ends) }

// rotate ends one sample: the recording buffers are kept if the sample was
// the fastest so far, and cleared for the next one either way.
func (tw *tracedWorld) rotate(keep bool) {
	if keep {
		tw.bestMsgs, tw.bestBytes = 0, 0
	}
	for i, e := range tw.ends {
		if keep {
			tw.best[i], e.tr = e.tr, tw.best[i]
			tw.bestMsgs += e.msgs
			tw.bestBytes += e.bytes
		}
		e.tr.reset()
		e.msgs, e.bytes = 0, 0
		e.op++
	}
}

// liveLedger splits one traced run's Elapsed, per cycle, into the mean
// rank's time inside Send, inside Recv, and outside the transport (kernel
// and halo codec), plus what none of them cover: spawn, block allocation
// before the first exchange, the last border rows and assembly after it.
type liveLedger struct {
	elapsedMs float64 // per cycle, all cycles of the traced sample
	sendMs    float64 // mean over ranks, per cycle
	recvMs    float64
	outsideMs float64
	unaccMs   float64
	// outsidePerThreadMs is Σ over ranks of time outside transport calls,
	// over cycles × GOMAXPROCS: per-thread busy time on kernel + codec.
	outsidePerThreadMs float64
	sendUs, recvUs     []float64 // every call's duration, µs
	msgsPerCycle       float64
	bytesPerCycle      float64
}

func (tw *tracedWorld) ledger(elapsedS float64, cycles, threads int) liveLedger {
	var led liveLedger
	ranks := float64(len(tw.best))
	perCycle := 1e3 / float64(cycles)
	var send, recv, span float64
	for _, t := range tw.best {
		if len(t.spans) == 0 {
			continue
		}
		send += t.total(spSend, 0, len(t.spans))
		recv += t.total(spRecv, 0, len(t.spans))
		span += float64(t.spans[len(t.spans)-1].end-t.spans[0].start) / 1e9
		for _, d := range t.durations(spSend) {
			led.sendUs = append(led.sendUs, d*1e6)
		}
		for _, d := range t.durations(spRecv) {
			led.recvUs = append(led.recvUs, d*1e6)
		}
	}
	led.elapsedMs = elapsedS * perCycle
	led.sendMs = send / ranks * perCycle
	led.recvMs = recv / ranks * perCycle
	led.outsideMs = (span - send - recv) / ranks * perCycle
	led.unaccMs = led.elapsedMs - led.sendMs - led.recvMs - led.outsideMs
	led.outsidePerThreadMs = (span - send - recv) / float64(threads) * perCycle
	led.msgsPerCycle = float64(tw.bestMsgs) / float64(cycles)
	led.bytesPerCycle = float64(tw.bestBytes) / float64(cycles)
	return led
}
