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
		{"idle", func(*Proc) {}, "simnet: task idle panicked: simnet: step returned without sending, receiving, computing or finishing"},
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

// TestResetRunsLikeNew: a simulator Reset after a run, one that left a
// message unreceived in a finished task's mailbox and ran with other
// options, runs the next program exactly as a new simulator does: the same
// end time, channel and task statistics, delivery sequence and messages
// received, with jitter re-seeded, step tasks computing, and goroutine
// tasks beside them.
func TestResetRunsLikeNew(t *testing.T) {
	type delivery struct {
		from, to int
		at       float64
	}
	// program records the size of each message its step tasks receive.
	program := func(s *Sim, seen *[]delivery) {
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
			if i == 1 || i == 2 {
				n, round, op := len(peers), 0, 0
				procs[i] = s.SpawnStep("step", cl, func(p *Proc) {
					switch {
					case round == 3:
						p.Finish()
						return
					case op < n:
						p.StartSend(procs[peers[op]], 1200, nil)
					case op < 2*n:
						msg, ok := p.TryRecv(procs[peers[op-n]])
						if !ok {
							return
						}
						*seen = append(*seen, delivery{from: -msg.Bytes, to: p.Rank()})
					default:
						p.Compute(0.7)
					}
					if op++; op == 2*n+1 {
						round, op = round+1, 0
					}
				})
				continue
			}
			procs[i] = s.Spawn("goroutine", cl, func(p *Proc) {
				for range 3 {
					p.AdvanceOps(2000, model.OpFloat)
					for _, nb := range peers {
						p.Send(procs[nb], 1200, nil)
					}
					for _, nb := range peers {
						p.Recv(procs[nb])
					}
				}
			})
		}
	}
	opts := func(seen *[]delivery) []Option {
		return []Option{WithJitter(0.2, 2741), WithMessageObserver(func(d Delivery) {
			*seen = append(*seen, delivery{d.From.Rank(), d.To.Rank(), d.DeliveredAtMs})
		})}
	}
	var want, got []delivery
	fresh, err := New(model.PaperTestbed(), opts(&want)...)
	if err != nil {
		t.Fatal(err)
	}
	program(fresh, &want)
	if err := runBounded(t, fresh); err != nil {
		t.Fatal(err)
	}

	reused, err := New(model.PaperTestbed(), WithJitter(0.5, 1))
	if err != nil {
		t.Fatal(err)
	}
	var procs [3]*Proc
	sent := false
	procs[0] = reused.SpawnStep("sender", model.IPCCluster, func(p *Proc) {
		if !sent {
			sent = true
			p.StartSend(procs[1], 4800, nil)
			return
		}
		p.Finish()
	})
	procs[1] = reused.SpawnStep("gone", model.IPCCluster, func(p *Proc) { p.Finish() })
	procs[2] = reused.Spawn("idle", model.Sparc2Cluster, func(p *Proc) { p.Advance(5) })
	if err := runBounded(t, reused); err != nil {
		t.Fatal(err)
	}
	reused.Reset(opts(&got)...)
	program(reused, &got)
	if err := runBounded(t, reused); err != nil {
		t.Fatal(err)
	}
	if reused.Now() != fresh.Now() {
		t.Errorf("end time %v after Reset, new simulator %v", reused.Now(), fresh.Now())
	}
	if !reflect.DeepEqual(reused.Stats(), fresh.Stats()) {
		t.Errorf("segment stats %+v after Reset, want %+v", reused.Stats(), fresh.Stats())
	}
	if !reflect.DeepEqual(reused.ProcStats(), fresh.ProcStats()) {
		t.Errorf("task stats %+v after Reset, want %+v", reused.ProcStats(), fresh.ProcStats())
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("deliveries after Reset\n%v\nwant\n%v", got, want)
	}
}
