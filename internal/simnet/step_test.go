package simnet

import (
	"reflect"
	"runtime"
	"testing"

	"netpart/internal/model"
)

// exchange is a step task that, rounds times, sends b bytes to each of its
// peers and then receives from each (indices into procs).
type exchange struct {
	procs     []*Proc
	peers     []int
	b, rounds int
	round, op int
}

func (x *exchange) step(p *Proc) {
	n := len(x.peers)
	switch {
	case x.round == x.rounds:
		p.Finish()
		return
	case x.op < n:
		p.StartSend(x.procs[x.peers[x.op]], x.b, nil)
	default:
		if _, ok := p.TryRecv(x.procs[x.peers[x.op-n]]); !ok {
			return
		}
	}
	if x.op++; x.op == 2*n {
		x.round, x.op = x.round+1, 0
	}
}

// TestMixedTasksMatchGoroutines: four ranks in a 1-D chain across the
// router, the middle two step tasks exchanging borders with each other and
// with goroutine tasks that compute between rounds, give the all-goroutine
// run's end time, channel and task statistics and delivery sequence, bit
// for bit, with jitter on.
func TestMixedTasksMatchGoroutines(t *testing.T) {
	type delivery struct {
		from, to, bytes int
		sent, at        float64
	}
	const rounds, b = 5, 1200
	run := func(stepRanks bool) (float64, []SegmentStats, []ProcStats, []delivery) {
		var seen []delivery
		s, _ := New(model.PaperTestbed(), WithJitter(0.2, 1994), WithMessageObserver(func(d Delivery) {
			seen = append(seen, delivery{d.From.Rank(), d.To.Rank(), d.Bytes, d.SentAtMs, d.DeliveredAtMs})
		}))
		procs := make([]*Proc, 4)
		for i := range procs {
			var peers []int
			if i > 0 {
				peers = append(peers, i-1)
			}
			if i < 3 {
				peers = append(peers, i+1)
			}
			cl := model.Sparc2Cluster
			if i >= 2 {
				cl = model.IPCCluster
			}
			if stepRanks && (i == 1 || i == 2) {
				x := &exchange{procs: procs, peers: peers, b: b, rounds: rounds}
				procs[i] = s.SpawnStep("step", cl, x.step)
				continue
			}
			compute := i == 0 || i == 3
			procs[i] = s.Spawn("goroutine", cl, func(p *Proc) {
				for r := 0; r < rounds; r++ {
					if compute {
						p.AdvanceOps(2000, model.OpFloat)
					}
					for _, nb := range peers {
						p.Send(procs[nb], b, nil)
					}
					for _, nb := range peers {
						p.Recv(procs[nb])
					}
				}
			})
		}
		if err := runBounded(t, s); err != nil {
			t.Fatal(err)
		}
		stats := s.ProcStats()
		for i := range stats {
			stats[i].Name = "" // the kinds are named apart
		}
		return s.Now(), s.Stats(), stats, seen
	}
	t0, st0, ps0, d0 := run(false)
	t1, st1, ps1, d1 := run(true)
	if len(d0) != 6*rounds {
		t.Fatalf("all-goroutine run delivered %d messages, want %d", len(d0), 6*rounds)
	}
	if t1 != t0 {
		t.Errorf("end time %v, want %v", t1, t0)
	}
	if !reflect.DeepEqual(st1, st0) {
		t.Errorf("segment stats %+v, want %+v", st1, st0)
	}
	if !reflect.DeepEqual(ps1, ps0) {
		t.Errorf("task stats %+v, want %+v", ps1, ps0)
	}
	if !reflect.DeepEqual(d1, d0) {
		t.Errorf("delivery sequence\n%v\nwant\n%v", d1, d0)
	}
}

// TestStepDeadlockReported: a step task stuck on a receive is named in
// Run's deadlock error beside a stuck goroutine task, and Run returns with
// no goroutine left behind; a blocked step task has no goroutine to unwind.
func TestStepDeadlockReported(t *testing.T) {
	base := steadyGoroutines()
	s, _ := New(model.PaperTestbed())
	var procs [2]*Proc
	procs[0] = s.Spawn("a", model.Sparc2Cluster, func(p *Proc) { p.Recv(procs[1]) })
	procs[1] = s.SpawnStep("b", model.IPCCluster, func(p *Proc) {
		if _, ok := p.TryRecv(procs[0]); ok {
			p.Finish()
		}
	})
	err := runBounded(t, s)
	if err == nil || err.Error() != "simnet: deadlock, 2 tasks blocked: [a (recv from rank 1) b (recv from rank 0)]" {
		t.Errorf("Run() = %v", err)
	}
	if n := settledGoroutines(base); n != base {
		t.Errorf("after a deadlocked Run: %d goroutines, want %d", n, base)
	}

	s, _ = New(model.PaperTestbed())
	var lone *Proc
	lone = s.SpawnStep("lone", model.Sparc2Cluster, func(p *Proc) { p.TryRecv(lone) })
	if err := runBounded(t, s); err == nil || err.Error() != "simnet: deadlock, 1 tasks blocked: [lone (recv from rank 0)]" {
		t.Errorf("step tasks alone: Run() = %v", err)
	}
}

// TestStepPanicIsTheTasks: a panicking step function ends its own task with
// its panic error, whether Run's goroutine or a goroutine task's holds the
// baton when it runs; it neither unwinds Run's caller nor ends the
// goroutine task, which runs to its end. A step that makes no operation, or
// two, or blocks, is a panic of its task too.
func TestStepPanicIsTheTasks(t *testing.T) {
	s, _ := New(model.PaperTestbed())
	s.SpawnStep("boomer", model.Sparc2Cluster, func(*Proc) { panic("boom") })
	if err := runBounded(t, s); err == nil || err.Error() != "simnet: task boomer panicked: boom" {
		t.Errorf("panic on Run's goroutine: Run() = %v", err)
	}

	s, _ = New(model.PaperTestbed())
	var end float64
	s.Spawn("holder", model.Sparc2Cluster, func(p *Proc) {
		p.Advance(1) // parks holding the baton; boomer's first wake runs here
		p.Advance(1)
		end = p.Now()
	})
	s.SpawnStep("boomer", model.IPCCluster, func(*Proc) { panic("boom") })
	if err := runBounded(t, s); err == nil || err.Error() != "simnet: task boomer panicked: boom" {
		t.Errorf("panic on a goroutine task's goroutine: Run() = %v", err)
	}
	if end != 2 {
		t.Errorf("the goroutine task holding the baton ended at %v, want 2", end)
	}

	for _, c := range []struct {
		name string
		step func(p *Proc)
		want string
	}{
		{"idle", func(*Proc) {}, "simnet: task idle panicked: simnet: step returned without sending, receiving or finishing"},
		{"twice", func(p *Proc) { p.StartSend(p, 1, nil); p.Finish() }, "simnet: task twice panicked: simnet: a second operation in one step"},
		{"blocking", func(p *Proc) { p.Advance(1) }, "simnet: task blocking panicked: simnet: a step task cannot block"},
	} {
		s, _ := New(model.PaperTestbed())
		s.SpawnStep(c.name, model.Sparc2Cluster, c.step)
		if err := runBounded(t, s); err == nil || err.Error() != c.want {
			t.Errorf("%s: Run() = %v, want %s", c.name, err, c.want)
		}
	}
}

// TestStepTasksStartNoGoroutine: a run of step tasks alone is one loop on
// Run's goroutine.
func TestStepTasksStartNoGoroutine(t *testing.T) {
	base := steadyGoroutines()
	s, _ := New(model.PaperTestbed())
	procs := make([]*Proc, 4)
	most := 0
	for i := range procs {
		x := &exchange{procs: procs, peers: []int{(i + 1) % 4, (i + 3) % 4}, b: 240, rounds: 3}
		procs[i] = s.SpawnStep("ring", model.Sparc2Cluster, func(p *Proc) {
			most = max(most, runtime.NumGoroutine())
			x.step(p)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if most != base {
		t.Errorf("%d goroutines during the run, want %d", most, base)
	}
}
