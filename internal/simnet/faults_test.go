package simnet

import (
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
