// Package faults is a deterministic, seedable fault-injection engine for
// the transports and runtimes in this repository. One Injector interface
// describes every fault class the chaos harness exercises:
//
//   - transient packet faults — drop, delay, duplication — consulted per
//     packet below the reliability layer, so the reliable transports mask
//     them (they manifest as latency, retransmissions, or timeouts, never
//     as corrupted application state);
//   - link partitions with heal schedules, expressed as packet drops
//     between two halves of the rank space during a wall-clock window;
//   - crash-at-cycle schedules, consulted by the runtime at cycle
//     boundaries (the transport cannot know about cycles);
//   - per-rank slowdown factors, consulted by the runtime's compute step.
//
// Determinism: every probabilistic decision hashes (seed, src, dst,
// per-stream counter, fault class) through splitmix64, so for a fixed seed
// and a fixed sequence of Packet calls per (src, dst) pair the injected
// faults are identical across runs, independent of goroutine interleaving
// between different pairs.
package faults

import (
	"sync"

	"netpart/internal/obs"
)

// Fate is the injector's decision for one packet. The zero value means
// "deliver normally".
type Fate struct {
	// Drop discards the packet (the reliability layer will retransmit).
	Drop bool
	// DelayMs holds the packet for this long before delivery.
	DelayMs float64
	// Duplicate delivers the packet twice (reliable transports deduplicate,
	// so this exercises their duplicate-suppression path).
	Duplicate bool
}

// Injector decides the fate of packets and the fault schedule of ranks.
// Implementations must be safe for concurrent use; transports call Packet
// from multiple goroutines.
type Injector interface {
	// Packet decides the fate of one packet from src to dst at nowMs
	// (milliseconds since the world's epoch — wall clock for live
	// transports, virtual time for the simulator).
	Packet(src, dst int, nowMs float64) Fate
	// CrashCycle returns the cycle at which rank should crash, or -1 for
	// never. Runtimes consult it at cycle boundaries against a monotonic
	// executed-cycle counter (so a crash fires at most once even when
	// recovery rolls the iteration count back).
	CrashCycle(rank int) int
	// Slowdown returns the compute-time multiplier for (rank, cycle);
	// 1 means full speed.
	Slowdown(rank, cycle int) float64
}

// Metric names an Engine records when built with a registry.
const (
	MetricInjected = "faults.injected" // total faulted packets
	MetricDrops    = "faults.drops"
	MetricDelays   = "faults.delays"
	MetricDups     = "faults.dups"
)

// Engine is the deterministic Injector over a parsed Schedule.
type Engine struct {
	sched Schedule
	seed  uint64

	mu     sync.Mutex
	counts map[uint64]uint64 // per (src,dst) packet counter

	injected *obs.Counter
	drops    *obs.Counter
	delays   *obs.Counter
	dups     *obs.Counter
}

// NewEngine builds an engine over the schedule. The seed drives every
// probabilistic decision; r (may be nil) receives the Metric* counters.
func NewEngine(sched Schedule, seed uint64, r *obs.Registry) *Engine {
	return &Engine{
		sched:    sched,
		seed:     seed,
		counts:   make(map[uint64]uint64),
		injected: r.Counter(MetricInjected),
		drops:    r.Counter(MetricDrops),
		delays:   r.Counter(MetricDelays),
		dups:     r.Counter(MetricDups),
	}
}

// splitmix64 is the standard 64-bit finalizer-style mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// roll returns a deterministic uniform value in [0,1) for the count-th
// packet on the (src,dst) stream under the given class salt.
func roll(seed uint64, src, dst int, count, salt uint64) float64 {
	key := uint64(uint32(src))<<32 | uint64(uint32(dst))
	x := splitmix64(seed ^ splitmix64(key) ^ splitmix64(count*2654435761+salt))
	return float64(x>>11) / float64(1<<53)
}

// Fault-class salts for roll.
const (
	saltDrop uint64 = 1 + iota
	saltDelay
	saltDup
)

// Packet implements Injector.
func (e *Engine) Packet(src, dst int, nowMs float64) Fate {
	e.mu.Lock()
	key := uint64(uint32(src))<<32 | uint64(uint32(dst))
	count := e.counts[key]
	e.counts[key] = count + 1
	e.mu.Unlock()

	var f Fate
	for _, p := range e.sched.Parts {
		if nowMs >= p.FromMs && nowMs < p.ToMs && (src < p.Cut) != (dst < p.Cut) {
			f.Drop = true
			e.drops.Inc()
			e.injected.Inc()
			return f
		}
	}
	for _, d := range e.sched.Drops {
		if nowMs >= d.FromMs && nowMs < d.ToMs && roll(e.seed, src, dst, count, saltDrop) < d.Prob {
			f.Drop = true
			e.drops.Inc()
			e.injected.Inc()
			return f
		}
	}
	for _, d := range e.sched.Delays {
		if nowMs >= d.FromMs && nowMs < d.ToMs && roll(e.seed, src, dst, count, saltDelay) < d.Prob {
			f.DelayMs = d.Ms
			e.delays.Inc()
		}
	}
	for _, d := range e.sched.Dups {
		if roll(e.seed, src, dst, count, saltDup) < d.Prob {
			f.Duplicate = true
			e.dups.Inc()
		}
	}
	if f.DelayMs > 0 || f.Duplicate {
		e.injected.Inc()
	}
	return f
}

// CrashCycle implements Injector.
func (e *Engine) CrashCycle(rank int) int {
	for _, c := range e.sched.Crashes {
		if c.Rank == rank {
			return c.Cycle
		}
	}
	return -1
}

// Slowdown implements Injector. Overlapping clauses multiply.
func (e *Engine) Slowdown(rank, cycle int) float64 {
	factor := 1.0
	for _, s := range e.sched.Slows {
		if s.Rank == rank && cycle >= s.FromCycle && cycle < s.ToCycle {
			factor *= s.Factor
		}
	}
	return factor
}
