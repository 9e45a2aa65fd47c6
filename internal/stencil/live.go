package stencil

import (
	"sync"
	"time"

	"netpart/internal/core"
	"netpart/internal/mmps"
	"netpart/internal/obs"
	"netpart/internal/repart"
)

// Live executes the distributed stencil over real concurrent tasks — one
// goroutine per rank — communicating through the given mmps transports (UDP
// or in-memory), under the policies in opts, on the wall clock. Rows are
// assigned by the partition vector; borders travel in network byte order
// (the MMPS coercion format). The result is bit-exact with the sequential
// kernel for any repartitioning sequence: decisions may vary with
// wall-clock noise, but only rank 0 decides and broadcasts, so every rank
// stays consistent. With opts.FT the run survives ranks failing (ftlive.go).
func Live(world []mmps.Transport, vec core.Vector, v Variant, n, iters int, opts Options) (Result, error) {
	j, err := newJob(true, vec, len(world), v, n, iters, opts)
	if err != nil {
		return Result{}, err
	}
	if opts.FT != nil {
		return j.runFT(world, opts)
	}
	errs, elapsed := runRanks(len(world), opts.Metrics, func(rank int, start time.Time) error {
		lk := newLiveLink(world[rank], start, n, 0)
		return j.runRank(&lk)
	})
	grid, err := j.finish(errs, nil)
	if err != nil {
		return Result{}, err
	}
	return Result{Elapsed: elapsed, Grid: grid, RunStats: j.out}, nil
}

// runRanks runs body once per rank, each on its own goroutine and all
// handed the same start time, waits for every rank, and returns their errors
// and the wall time, which it also records as MetricElapsedMs.
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
	m.Gauge(MetricElapsedMs).Set(float64(elapsed) / float64(time.Millisecond))
	return errs, elapsed
}

// liveLink is the driver's link over an mmps transport: each border is one
// halo frame (halo.go) built in a reused buffer and decoded straight into
// the ghost row, so the exchange allocates nothing in steady state and
// copies each row only through the transport. One goroutine owns it.
type liveLink struct {
	tr    mmps.Transport
	epoch time.Time

	// Send copies its argument before returning, so one frame buffer
	// serves every send of the run — across migrations too, because every
	// block is n columns wide.
	sendBuf []byte
}

// newLiveLink is the link of endpoint tr in a run that began at start;
// header is the room a send needs in front of the halo frame.
func newLiveLink(tr mmps.Transport, start time.Time, n, header int) liveLink {
	return liveLink{
		tr:      tr,
		epoch:   start,
		sendBuf: make([]byte, 0, header+haloHeaderLen+8*n),
	}
}

func (l *liveLink) Rank() int { return l.tr.Rank() }
func (l *liveLink) Size() int { return l.tr.Size() }

func (l *liveLink) Send(dst int, h halo) error {
	l.sendBuf = appendHaloFrame(l.sendBuf[:0], h.row, h.cycle, h.vals)
	return l.tr.Send(dst, l.sendBuf)
}

// Recv decodes the frame into into's own words: capped at its length, a
// longer border decodes into a fresh slice instead, so a malformed frame
// never writes past the ghost row, and the driver sees the wrong length.
func (l *liveLink) Recv(src int, into []float64) (halo, error) {
	buf, err := l.tr.Recv(src)
	if err != nil {
		return halo{}, err
	}
	row, cycle, vals, err := parseHaloFrame(buf, into[:0:len(into)])
	if err != nil {
		return halo{}, err
	}
	// No value lives in the delivered buffer any more, so it can go back to
	// the transport's free list.
	mmps.Recycle(l.tr, buf)
	return halo{row, cycle, vals}, nil
}

func (l *liveLink) control() repart.Link { return l.tr }

// nowMs is the wall time since the run epoch in milliseconds.
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
