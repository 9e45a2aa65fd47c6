package simnet

import "netpart/internal/model"

// Batch accumulates consecutive compute charges into a single park. The
// per-row Advance pattern costs one scheduled event per charge, and a
// baton hand-off whenever another task is due first; a task that charges
// many rows back to back (the stencil's computeRows loop) pays that per
// cycle instead of per row by accumulating the charges here and parking
// once in Flush.
//
// Determinism: the batch accumulates exactly the float additions the
// unbatched path performs, in the same order — at_k = at_{k-1} + ms_k with
// one rounding per charge, which is precisely the virtual-time sequence of
// back-to-back Advance calls (each wake-up sets now to the scheduled at).
// Wall-clock behavior changes; virtual time is bit-for-bit identical.
//
// A batch must be flushed before the task communicates or reads the
// virtual clock: sends and receives between Advance and Flush would be
// stamped with the pre-batch time.
type Batch struct {
	p     *Proc
	at    float64
	dirty bool
}

// BeginBatch starts a compute batch at the current virtual time.
func (p *Proc) BeginBatch() Batch {
	return Batch{p: p, at: p.sim.now}
}

// Advance accrues ms milliseconds of virtual compute time to the batch.
//
//netpart:hotpath
func (b *Batch) Advance(ms float64) {
	if ms < 0 {
		panic("simnet: negative advance in batch")
	}
	b.p.computeMs += ms
	b.at += ms
	b.dirty = true
}

// AdvanceOps accrues the virtual time of n operations of the given class
// at the task's cluster speed.
//
//netpart:hotpath
func (b *Batch) AdvanceOps(n float64, class model.OpClass) {
	b.Advance(n * b.p.cluster.OpTime(class))
}

// Flush schedules one wake-up at the accumulated time and parks the task
// until the clock reaches it. A clean batch (no charges) is free: no
// event, no park. The batch is reusable afterwards, rebased to the
// post-flush virtual time.
func (b *Batch) Flush() {
	if !b.dirty {
		b.at = b.p.sim.now
		return
	}
	p := b.p
	p.sim.schedule(b.at, evWake, p, nil)
	p.park()
	b.at = p.sim.now
	b.dirty = false
}
