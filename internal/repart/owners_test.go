package repart

import (
	"testing"
	"testing/quick"

	"netpart/internal/core"
)

// vecFromRaw shapes arbitrary fuzz bytes into a partition vector of 1..16
// ranks with 0..15 rows each (zeros model retired ranks).
func vecFromRaw(raw []byte) core.Vector {
	if len(raw) == 0 {
		raw = []byte{1}
	}
	if len(raw) > 16 {
		raw = raw[:16]
	}
	vec := make(core.Vector, len(raw))
	for i, b := range raw {
		vec[i] = int(b % 16)
	}
	return vec
}

// shuffleVec redistributes vec's total across the same number of ranks,
// deterministically from seed, preserving the sum.
func shuffleVec(vec core.Vector, seed uint64) core.Vector {
	out := append(core.Vector(nil), vec...)
	for i := 0; i < len(out)-1; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		if out[i] == 0 {
			continue
		}
		move := int(seed>>33) % (out[i] + 1)
		out[i] -= move
		out[i+1] += move
	}
	return out
}

func TestOwnersBasics(t *testing.T) {
	own := NewOwners(core.Vector{3, 0, 5})
	if own.First(0) != 0 || own.Count(0) != 3 {
		t.Errorf("rank 0: first=%d count=%d", own.First(0), own.Count(0))
	}
	if own.First(1) != 3 || own.Count(1) != 0 {
		t.Errorf("rank 1: first=%d count=%d", own.First(1), own.Count(1))
	}
	if own.First(2) != 3 || own.Count(2) != 5 {
		t.Errorf("rank 2: first=%d count=%d", own.First(2), own.Count(2))
	}
	for g := 0; g < 8; g++ {
		want := 0
		if g >= 3 {
			want = 2 // the zero-width rank owns nothing
		}
		if got := own.OwnerOf(g); got != want {
			t.Errorf("OwnerOf(%d)=%d want %d", g, got, want)
		}
	}
}

// Property: Overlap and MovedRows agree with the brute-force per-row
// ownership comparison, and ForEachSpan tiles exactly the departing rows.
func TestOwnersProperty(t *testing.T) {
	f := func(raw []byte, seed uint64) bool {
		old := vecFromRaw(raw)
		new := shuffleVec(old, seed)
		oldOwn, newOwn := NewOwners(old), NewOwners(new)
		total := 0
		for _, c := range old {
			total += c
		}
		// Brute-force moved count.
		moved := 0
		for g := 0; g < total; g++ {
			if oldOwn.OwnerOf(g) != newOwn.OwnerOf(g) {
				moved++
			}
		}
		if MovedRows(old, new) != moved {
			return false
		}
		// Overlap against brute force, all rank pairs.
		for a := range old {
			for b := range new {
				n := 0
				for g := oldOwn.First(a); g < oldOwn.First(a)+oldOwn.Count(a); g++ {
					if newOwn.OwnerOf(g) == b {
						n++
					}
				}
				if Overlap(oldOwn, a, newOwn, b) != n {
					return false
				}
			}
		}
		// ForEachSpan visits every departing row once, ascending, never self.
		for rank := range old {
			seen := map[int]bool{}
			last := -1
			err := ForEachSpan(oldOwn.First(rank), oldOwn.Count(rank), newOwn, rank,
				func(dst, first, count int) error {
					if dst == rank || count <= 0 || first <= last {
						t.Fatalf("bad span dst=%d first=%d count=%d", dst, first, count)
					}
					last = first
					for g := first; g < first+count; g++ {
						if newOwn.OwnerOf(g) != dst || seen[g] {
							t.Fatalf("span row %d misrouted", g)
						}
						seen[g] = true
					}
					return nil
				})
			if err != nil {
				return false
			}
			for g := oldOwn.First(rank); g < oldOwn.First(rank)+oldOwn.Count(rank); g++ {
				if (newOwn.OwnerOf(g) != rank) != seen[g] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
