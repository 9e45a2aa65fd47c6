package topo

import (
	"fmt"
	"testing"
)

// TestSegmentCrossesMatchesNeighbors verifies the closed-form crossing
// predicates against the Neighbors-derived reference for every built-in
// topology, total rank count, and contiguous segment.
func TestSegmentCrossesMatchesNeighbors(t *testing.T) {
	for _, name := range Names() {
		tp, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for p := 1; p <= 24; p++ {
			for lo := 0; lo < p; lo++ {
				for hi := lo + 1; hi <= p; hi++ {
					want := false
					for rank := lo; rank < hi && !want; rank++ {
						for _, nb := range tp.Neighbors(rank, p) {
							if nb < lo || nb >= hi {
								want = true
								break
							}
						}
					}
					if got := SegmentCrosses(tp, lo, hi, p); got != want {
						t.Errorf("%s p=%d [%d,%d): SegmentCrosses=%v, reference=%v",
							name, p, lo, hi, got, want)
					}
				}
			}
		}
	}
}

// TestSegmentCrossesMatchesBorderTasks ties the predicate to the placement
// API it replaces on the estimate hot path: for a contiguous two-cluster
// placement, SegmentCrosses over each cluster's rank range must agree with
// BorderTasks.
func TestSegmentCrossesMatchesBorderTasks(t *testing.T) {
	for _, name := range Names() {
		tp, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for c1 := 1; c1 <= 8; c1++ {
			for c2 := 0; c2 <= 8; c2++ {
				names := []string{"a"}
				counts := []int{c1}
				if c2 > 0 {
					names = append(names, "b")
					counts = append(counts, c2)
				}
				pl, err := Contiguous(names, counts)
				if err != nil {
					t.Fatal(err)
				}
				border := BorderTasks(tp, pl)
				total := c1 + c2
				lo := 0
				for i, cl := range names {
					hi := lo + counts[i]
					if got, want := SegmentCrosses(tp, lo, hi, total), border[cl] > 0; got != want {
						t.Errorf("%s counts=%v cluster %s: SegmentCrosses=%v, BorderTasks=%d",
							name, counts, cl, got, border[cl])
					}
					lo = hi
				}
			}
		}
	}
}

// TestSegmentCrossesFallback exercises the Neighbors fallback for a
// topology the type switch does not know.
func TestSegmentCrossesFallback(t *testing.T) {
	tp := customRing{}
	for p := 2; p <= 8; p++ {
		for lo := 0; lo < p; lo++ {
			for hi := lo + 1; hi <= p; hi++ {
				want := false
				for rank := lo; rank < hi && !want; rank++ {
					for _, nb := range tp.Neighbors(rank, p) {
						if nb < lo || nb >= hi {
							want = true
							break
						}
					}
				}
				if got := SegmentCrosses(tp, lo, hi, p); got != want {
					t.Errorf("custom p=%d [%d,%d): got %v, want %v", p, lo, hi, got, want)
				}
			}
		}
	}
}

// customRing is an out-of-registry topology used to hit the generic path.
type customRing struct{}

func (customRing) Name() string { return "custom-ring" }
func (customRing) Neighbors(rank, p int) []int {
	if p == 1 {
		return nil
	}
	return []int{(rank + 1) % p}
}
func (customRing) BandwidthLimited() bool { return false }

func ExampleSegmentCrosses() {
	// Ranks [0,3) of a 6-task line: rank 2 talks to rank 3 outside.
	fmt.Println(SegmentCrosses(OneD{}, 0, 3, 6))
	// The whole line: nothing outside.
	fmt.Println(SegmentCrosses(OneD{}, 0, 6, 6))
	// Output:
	// true
	// false
}
