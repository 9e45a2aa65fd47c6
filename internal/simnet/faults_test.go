package simnet

import (
	"math"
	"testing"

	"netpart/internal/faults"
	"netpart/internal/model"
)

// TestFaultInjectorDropDelaysDelivery verifies injected drops cost
// retransmission latency but never lose the message, and the run is
// deterministic for a fixed seed.
func TestFaultInjectorDropDelaysDelivery(t *testing.T) {
	elapsed := func(sched string, seed uint64) float64 {
		inj := faults.NewEngine(faults.MustParse(sched), seed, nil)
		s, err := New(model.PaperTestbed(), WithFaultInjector(inj, 5))
		if err != nil {
			t.Fatal(err)
		}
		procs := make([]*Proc, 2)
		procs[0] = s.Spawn("sender", model.Sparc2Cluster, func(p *Proc) {
			for i := 0; i < 20; i++ {
				p.Send(procs[1], 500, i)
			}
		})
		procs[1] = s.Spawn("receiver", model.IPCCluster, func(p *Proc) {
			for i := 0; i < 20; i++ {
				msg := p.Recv(procs[0])
				if msg.Payload.(int) != i {
					t.Errorf("message %d arrived out of order: %v", i, msg.Payload)
				}
			}
		})
		if err := s.Run(); err != nil {
			t.Fatalf("Run under %q: %v", sched, err)
		}
		return s.Now()
	}
	clean := elapsed("", 1)
	faulty := elapsed("drop:0.4", 1)
	if faulty <= clean {
		t.Fatalf("drops should cost virtual time: clean %.3f, faulty %.3f", clean, faulty)
	}
	if a, b := elapsed("drop:0.4;delay:0.3,2", 9), elapsed("drop:0.4;delay:0.3,2", 9); a != b {
		t.Fatalf("same seed, different elapsed: %.6f vs %.6f", a, b)
	}
}

// TestFaultInjectorLostMessageIsDeadlockNotHang drops everything forever:
// the receiver must surface in Run's deadlock report once retries are
// exhausted, not hang the test.
func TestFaultInjectorLostMessageIsDeadlockNotHang(t *testing.T) {
	inj := faults.NewEngine(faults.MustParse("drop:1"), 3, nil)
	s, err := New(model.PaperTestbed(), WithFaultInjector(inj, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]*Proc, 2)
	procs[0] = s.Spawn("sender", model.Sparc2Cluster, func(p *Proc) {
		p.Send(procs[1], 100, "doomed")
	})
	procs[1] = s.Spawn("receiver", model.Sparc2Cluster, func(p *Proc) {
		p.Recv(procs[0])
	})
	if err := s.Run(); err == nil {
		t.Fatal("Run = nil, want deadlock error for the lost message")
	}
}

// TestFaultInjectorTimesPinned pins the virtual end time and a weighted sum
// of every delivery time, in float64 bits, of a six-rank ring across the
// router under drops and delays, at three injector seeds. The values were
// recorded when each retransmission and delayed transmission was still a
// closure; a change to how the injector's events are scheduled that moved
// any virtual time would move them.
func TestFaultInjectorTimesPinned(t *testing.T) {
	want := map[uint64][2]uint64{
		1: {0x40646a2d0e560414, 0x411ddb109604188e},
		2: {0x4064bf70a3d70a3b, 0x411db906bae147aa},
		3: {0x4064689374bc6a7a, 0x411d942bd374bc68},
	}
	for seed, w := range want {
		inj := faults.NewEngine(faults.MustParse("drop:0.4;delay:0.3,2"), seed, nil)
		var sum float64
		n := 0
		s, err := New(model.PaperTestbed(), WithFaultInjector(inj, 3), WithMessageObserver(func(d Delivery) {
			n++
			sum += float64(n) * d.DeliveredAtMs
		}))
		if err != nil {
			t.Fatal(err)
		}
		procs := make([]*Proc, 6)
		for i := range procs {
			i := i
			cl := model.Sparc2Cluster
			if i >= 3 {
				cl = model.IPCCluster
			}
			procs[i] = s.Spawn("t", cl, func(p *Proc) {
				for r := 0; r < 8; r++ {
					p.Send(procs[(i+1)%6], 700, nil)
					p.Send(procs[(i+5)%6], 700, nil)
					p.Recv(procs[(i+1)%6])
					p.Recv(procs[(i+5)%6])
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if got := [2]uint64{math.Float64bits(s.Now()), math.Float64bits(sum)}; got != w || n != 96 {
			t.Errorf("seed %d: end and delivery-sum bits %#x over %d deliveries, want %#x over 96", seed, got, n, w)
		}
	}
}
