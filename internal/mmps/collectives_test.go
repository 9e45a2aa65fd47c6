package mmps

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// runCollective starts one goroutine per rank, collects results/errors.
func runCollective(t *testing.T, eps []Transport, body func(tr Transport) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(eps))
	for i := range eps {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = body(eps[i])
		}()
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

func TestBcast(t *testing.T) {
	for name, eps := range worlds(t, 4, WithRecvTimeout(10*time.Second)) {
		t.Run(name, func(t *testing.T) {
			defer closeAll(eps)
			runCollective(t, eps, func(tr Transport) error {
				var in []byte
				if tr.Rank() == 0 {
					in = []byte("announcement")
				}
				got, err := Bcast(tr, in)
				if err != nil {
					return err
				}
				if string(got) != "announcement" {
					return fmt.Errorf("got %q", got)
				}
				return nil
			})
		})
	}
}

func TestGather(t *testing.T) {
	for name, eps := range worlds(t, 4, WithRecvTimeout(10*time.Second)) {
		t.Run(name, func(t *testing.T) {
			defer closeAll(eps)
			runCollective(t, eps, func(tr Transport) error {
				got, err := Gather(tr, []byte{byte(tr.Rank() * 10)})
				if err != nil {
					return err
				}
				if tr.Rank() != 0 {
					if got != nil {
						return fmt.Errorf("non-root got %v", got)
					}
					return nil
				}
				for r, part := range got {
					if len(part) != 1 || part[0] != byte(r*10) {
						return fmt.Errorf("root slot %d = %v", r, part)
					}
				}
				return nil
			})
		})
	}
}

func TestAllGather(t *testing.T) {
	for name, eps := range worlds(t, 5, WithRecvTimeout(10*time.Second)) {
		t.Run(name, func(t *testing.T) {
			defer closeAll(eps)
			runCollective(t, eps, func(tr Transport) error {
				payload := []byte(fmt.Sprintf("rank-%d", tr.Rank()))
				got, err := AllGather(tr, payload)
				if err != nil {
					return err
				}
				if len(got) != 5 {
					return fmt.Errorf("got %d parts", len(got))
				}
				for r, part := range got {
					if string(part) != fmt.Sprintf("rank-%d", r) {
						return fmt.Errorf("slot %d = %q", r, part)
					}
				}
				return nil
			})
		})
	}
}

func TestAllGatherEmptyPayloads(t *testing.T) {
	eps := worlds(t, 3, WithRecvTimeout(10*time.Second))["local"]
	defer closeAll(eps)
	runCollective(t, eps, func(tr Transport) error {
		got, err := AllGather(tr, nil)
		if err != nil {
			return err
		}
		for r, part := range got {
			if len(part) != 0 {
				return fmt.Errorf("slot %d = %v", r, part)
			}
		}
		return nil
	})
}
