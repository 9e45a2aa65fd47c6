package parallel

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		const n = 37
		var hits [n]int32
		if err := For(workers, n, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestForReturnsLowestIndexError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	err := For(4, 10, func(i int) error {
		switch i {
		case 3:
			return errB
		case 7:
			return errA
		}
		return nil
	})
	if err != errB {
		t.Errorf("got %v, want the lowest-index error %v", err, errB)
	}
	// Serial path stops at the first error, like a plain loop.
	ran := 0
	err = For(1, 10, func(i int) error {
		ran++
		if i == 2 {
			return errA
		}
		return nil
	})
	if err != errA || ran != 3 {
		t.Errorf("serial path: err=%v after %d calls, want %v after 3", err, ran, errA)
	}
}

func TestForEmpty(t *testing.T) {
	if err := For(4, 0, func(int) error { t.Error("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}
