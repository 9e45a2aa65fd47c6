package faults

import (
	"math"
	"sort"
)

// Sanitize clamps a schedule into a range a small test world of the given
// size survives: ranks and partition cuts wrap into range, at most one
// crash (kept at a cycle in [1, maxCycle)), probabilities capped so the
// reliability layer always gets packets through, delays and windows kept
// short, slow factors bounded. The chaos and fuzz tests use it to turn
// arbitrary parsed input into a recoverable scenario; it is test code
// because a program applies a schedule as written or refuses it.
func (s Schedule) Sanitize(worldSize, maxCycle int) Schedule {
	out := Schedule{}
	if worldSize < 2 {
		worldSize = 2
	}
	if maxCycle < 2 {
		maxCycle = 2
	}
	for _, c := range s.Crashes {
		out.Crashes = append(out.Crashes, Crash{
			Rank:  abs(c.Rank) % worldSize,
			Cycle: 1 + abs(c.Cycle)%(maxCycle-1),
		})
		break // at most one crash: quorum must survive in tiny worlds
	}
	for _, d := range s.Drops {
		out.Drops = append(out.Drops, Drop{Prob: clamp(d.Prob, 0.15), FromMs: 0, ToMs: math.MaxFloat64})
	}
	for _, d := range s.Delays {
		out.Delays = append(out.Delays, Delay{
			Prob: clamp(d.Prob, 0.3), Ms: clamp(d.Ms, 5), FromMs: 0, ToMs: math.MaxFloat64,
		})
	}
	for _, d := range s.Dups {
		out.Dups = append(out.Dups, Dup{Prob: clamp(d.Prob, 0.3)})
	}
	for _, sl := range s.Slows {
		out.Slows = append(out.Slows, Slow{
			Rank: abs(sl.Rank) % worldSize, Factor: 1 + clamp(sl.Factor, 3),
			FromCycle: 0, ToCycle: math.MaxInt32,
		})
	}
	for _, p := range s.Parts {
		from := clamp(p.FromMs, 100)
		out.Parts = append(out.Parts, Part{
			Cut: 1 + abs(p.Cut)%(worldSize-1), FromMs: from, ToMs: from + clamp(p.ToMs-p.FromMs, 120),
		})
	}
	sort.Slice(out.Parts, func(i, j int) bool { return out.Parts[i].FromMs < out.Parts[j].FromMs })
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func clamp(x, hi float64) float64 {
	if math.IsNaN(x) || x < 0 {
		return 0
	}
	if x > hi {
		return hi
	}
	return x
}
