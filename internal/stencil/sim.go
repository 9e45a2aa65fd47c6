package stencil

import (
	"sync"

	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/model"
	"netpart/internal/repart"
	"netpart/internal/simnet"
	"netpart/internal/spmd"
	"netpart/internal/topo"
)

const retransmitMs = 10 // Sim's price of a packet the Injector drops: one retransmission round trip

// Sim executes the distributed stencil on the simulated network: one task
// per processor of the configuration (contiguous 1-D placement, fastest
// cluster first), rows assigned by the partition vector, iters Jacobi
// iterations under the policies in opts, in virtual time. The final grid is
// assembled for verification against Sequential, and stays bit-exact with
// it however a repartitioning moves rows.
func Sim(net *model.Network, cfg cost.Config, vec core.Vector, v Variant, n, iters int, opts Options) (Result, error) {
	names, counts := cfg.Active()
	pl, err := topo.Contiguous(names, counts)
	if err != nil {
		return Result{}, err
	}
	j, err := newJob(false, vec, pl.NumTasks(), v, n, iters, opts)
	if err != nil {
		return Result{}, err
	}
	simOpts := opts.SimOptions
	if inj := opts.Injector; inj != nil {
		simOpts = append(append([]simnet.Option(nil), simOpts...),
			simnet.WithFaultInjector(inj, retransmitMs))
	}
	errs := make([]error, len(vec))
	rep, err := spmd.Run(spmd.Job{
		Net:        net,
		Placement:  pl,
		Vector:     vec,
		Topology:   topo.OneD{},
		Metrics:    opts.Metrics,
		SimOptions: simOpts,
		Body:       func(t *spmd.Task) { errs[t.Rank()] = j.runRank(&simLink{t: t, timeOnly: j.timeOnly}) },
	})
	grid, err := j.finish(errs, err)
	if err != nil {
		return Result{}, err
	}
	opts.Metrics.Gauge(MetricElapsedMs).Set(rep.ElapsedMs)
	return Result{ElapsedMs: rep.ElapsedMs, Grid: grid, Report: rep, RunStats: j.out}, nil
}

// simLink is the driver's link over a virtual-time task handle. It keeps
// the rank's outgoing borders in a two-slot ring per side, ring[side][k&1]
// for cycle k (side 0 north, 1 south), and sends a pointer to the slot, so
// a border costs one message and no allocation. A slot is free again when
// it is rewritten: rank A writes border k+2 for B only after receiving B's
// border k+1, which B sent only after its cycle-k receives, A's border k
// among them.
type simLink struct {
	t        *spmd.Task
	timeOnly bool
	ring     [2][2]halo
}

func (l *simLink) Rank() int { return l.t.Rank() }
func (l *simLink) Size() int { return l.t.NumTasks() }

// Send charges the paper's 4N bytes for the border. A full run copies the
// values into the slot, because the sim delivers them after this task has
// begun overwriting the row in place. A time-only slot aliases the row:
// the receiver checks only row, cycle and length, and copies no values.
func (l *simLink) Send(dst int, h halo) error {
	side := 0
	if dst > l.t.Rank() {
		side = 1
	}
	slot := &l.ring[side][h.cycle&1]
	slot.row, slot.cycle = h.row, h.cycle
	if l.timeOnly {
		slot.vals = h.vals
	} else {
		slot.vals = append(slot.vals[:0], h.vals...)
	}
	l.t.Send(dst, BytesPerPoint*len(h.vals), slot)
	return nil
}

// Recv copies the slot into the ghost row in a full run and leaves the row
// dirty in a time-only one. It leaves a payload of the wrong kind (a
// control frame where a border is due, or the reverse in simControl.Recv)
// as the zero value, which the driver's row and cycle check, or the
// frame's decoder, rejects.
func (l *simLink) Recv(src int, into []float64) (halo, error) {
	h, ok := l.t.Recv(src).(*halo)
	if !ok {
		return halo{}, nil
	}
	if !l.timeOnly {
		copy(into, h.vals)
	}
	return *h, nil
}

func (l *simLink) control() repart.Link { return simControl{l.t} }
func (l *simLink) nowMs() float64       { return l.t.NowMs() }

// overlapPoints is the smallest span, in grid points, whose update is worth
// a goroutine hand-off; a smaller one runs on the rank's own goroutine.
const overlapPoints = 4096

// compute batches the span's per-row virtual-time charges into one park
// and overlaps the update with it: while the rank is parked for the charged
// time the simulator runs the ranks that compute at the same virtual time,
// and their updates run beside this one on whatever cores there are.
// Joining before the return keeps the flip and the next Send behind the
// update, so no other goroutine sees a block mid-write and virtual time
// does not see the update at all. A panic in the update is carried over the
// join and raised again here, on the rank's goroutine, where the simulator
// turns it into the run's error; the join is deferred so that it also
// happens, and the worker is not left blocked on its send, if the park
// itself panics or the simulator unwinds the rank. A time-only run charges
// and parks the same, and has no update to run or join.
func (l *simLink) compute(s *rankState, lo, hi int, factor float64) {
	n := s.job.n
	cb := l.t.BeginCompute()
	for g := s.off + lo - 1; g < s.off+hi; g++ {
		cb.Ops(rowOps(g, n)*factor, model.OpFloat)
	}
	if s.job.timeOnly {
		cb.Done()
		return
	}
	if (hi-lo+1)*n < overlapPoints {
		s.update(lo, hi, 1)
		cb.Done()
		return
	}
	done := make(chan any) // unbuffered: the deferred join below always receives
	go func() {
		defer func() { done <- recover() }()
		s.update(lo, hi, 1)
	}()
	defer func() {
		if r := <-done; r != nil {
			panic(r)
		}
	}()
	cb.Done()
}

// dirtyCells recycles the backing arrays of time-only blocks across runs.
// They are handed out as the last run left them, not zeroed: no value of a
// time-only block reaches a result, a branch or virtual time. The update
// that would read them never runs, a border's charge and the halo check read
// its row, cycle and length only, and a migrated row is a fixed 8 bytes a
// value whatever the value. Boxes keep Get and Put free of allocation once
// the pool is warm.
var dirtyCells = sync.Pool{New: func() any { return new([]float64) }}

// getBlock returns a block of rows data rows and width columns over a pooled
// backing array with whatever values it holds, and the box to hand back with
// putBlock once the block is dead.
func getBlock(rows, width int) (block, *[]float64) {
	p := dirtyCells.Get().(*[]float64)
	n := (rows + 3) * width
	if cap(*p) < n+2*width {
		*p = make([]float64, n+2*width)
	}
	*p = (*p)[:n+2*width]
	return block{width: width, rows: rows, shift: 1, cells: (*p)[:n:n], stash: (*p)[n:]}, p
}

// putBlock recycles a box obtained from getBlock. Nothing may touch the
// block afterwards: the next getBlock may hand its cells to another run.
func putBlock(p *[]float64) { dirtyCells.Put(p) }

// simControl adapts the task handle to the repart protocol's transport
// surface. Sends are charged at the encoded byte size.
type simControl struct{ t *spmd.Task }

func (l simControl) Rank() int { return l.t.Rank() }
func (l simControl) Size() int { return l.t.NumTasks() }
func (l simControl) Send(dst int, data []byte) error {
	l.t.Send(dst, len(data), data)
	return nil
}
func (l simControl) Recv(src int) ([]byte, error) {
	buf, _ := l.t.Recv(src).([]byte)
	return buf, nil
}
