package simnet

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"netpart/internal/model"
)

func TestAdvanceAccumulatesTime(t *testing.T) {
	s, err := New(model.PaperTestbed())
	if err != nil {
		t.Fatal(err)
	}
	var end float64
	s.Spawn("t0", model.Sparc2Cluster, func(p *Proc) {
		p.Advance(5)
		p.Advance(2.5)
		end = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 7.5 {
		t.Errorf("end time = %v, want 7.5", end)
	}
	if s.Now() != 7.5 {
		t.Errorf("sim time = %v, want 7.5", s.Now())
	}
}

func TestAdvanceOpsUsesClusterSpeed(t *testing.T) {
	s, _ := New(model.PaperTestbed())
	var sparcEnd, ipcEnd float64
	s.Spawn("fast", model.Sparc2Cluster, func(p *Proc) {
		p.AdvanceOps(1000, model.OpFloat)
		sparcEnd = p.Now()
	})
	s.Spawn("slow", model.IPCCluster, func(p *Proc) {
		p.AdvanceOps(1000, model.OpFloat)
		ipcEnd = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(sparcEnd-0.3) > 1e-9 { // 1000 flops at 0.3 µs
		t.Errorf("sparc2 1000 flops = %v ms, want 0.3", sparcEnd)
	}
	if math.Abs(ipcEnd-0.6) > 1e-9 {
		t.Errorf("ipc 1000 flops = %v ms, want 0.6", ipcEnd)
	}
}

func TestSendRecvSameSegment(t *testing.T) {
	net := model.PaperTestbed()
	s, _ := New(net)
	var procs [2]*Proc
	var delivered Message
	procs[0] = s.Spawn("sender", model.Sparc2Cluster, func(p *Proc) {
		p.Send(procs[1], 1000, "hello")
	})
	procs[1] = s.Spawn("receiver", model.Sparc2Cluster, func(p *Proc) {
		delivered = p.Recv(procs[0])
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered.From != procs[0] || delivered.Payload != "hello" {
		t.Fatalf("message not delivered: %+v", delivered)
	}
	// Expected delivery time: send CPU + channel hold.
	c := net.Cluster(model.Sparc2Cluster)
	want := SendCPUMs + c.MsgOverheadMs + 1000*(1/1250.0+c.HostPerByteMs)
	if math.Abs(delivered.DeliveredAt-want) > 1e-9 {
		t.Errorf("DeliveredAt = %v, want %v", delivered.DeliveredAt, want)
	}
	if delivered.SentAt != SendCPUMs {
		t.Errorf("SentAt = %v, want %v", delivered.SentAt, SendCPUMs)
	}
}

func TestSendRecvCrossSegment(t *testing.T) {
	net := model.PaperTestbed()
	s, _ := New(net)
	var procs [2]*Proc
	var delivered Message
	procs[0] = s.Spawn("sender", model.Sparc2Cluster, func(p *Proc) {
		p.Send(procs[1], 1000, nil)
	})
	procs[1] = s.Spawn("receiver", model.IPCCluster, func(p *Proc) {
		delivered = p.Recv(procs[0])
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	c1 := net.Cluster(model.Sparc2Cluster)
	c2 := net.Cluster(model.IPCCluster)
	want := SendCPUMs +
		c1.MsgOverheadMs + 1000*(1/1250.0+c1.HostPerByteMs) + // source channel
		net.Router.PerByteMs*1000 + // router
		c2.MsgOverheadMs + 1000*(1/1250.0+c2.HostPerByteMs) // destination channel
	if math.Abs(delivered.DeliveredAt-want) > 1e-9 {
		t.Errorf("DeliveredAt = %v, want %v", delivered.DeliveredAt, want)
	}
}

func TestCoercionChargesSender(t *testing.T) {
	net := model.Figure1Network()
	s, _ := New(net)
	var procs [2]*Proc
	var sentAt float64
	procs[0] = s.Spawn("sender", "sun4", func(p *Proc) { // big-endian
		p.Send(procs[1], 1000, nil)
		sentAt = p.Now()
	})
	procs[1] = s.Spawn("receiver", "rs6000", func(p *Proc) { // little-endian
		p.Recv(procs[0])
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := SendCPUMs + net.Coerce.PerByteMs*1000
	if math.Abs(sentAt-want) > 1e-9 {
		t.Errorf("coerced send CPU = %v, want %v", sentAt, want)
	}
}

func TestChannelSerializesConcurrentSenders(t *testing.T) {
	net := model.PaperTestbed()
	s, _ := New(net)
	const nSenders = 4
	procs := make([]*Proc, nSenders+1)
	for i := 0; i < nSenders; i++ {
		i := i
		procs[i] = s.Spawn("sender", model.Sparc2Cluster, func(p *Proc) {
			p.Send(procs[nSenders], 1000, nil)
		})
	}
	var lastDelivery float64
	procs[nSenders] = s.Spawn("sink", model.Sparc2Cluster, func(p *Proc) {
		for i := 0; i < nSenders; i++ {
			m := p.Recv(procs[i])
			if m.DeliveredAt > lastDelivery {
				lastDelivery = m.DeliveredAt
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	c := net.Cluster(model.Sparc2Cluster)
	hold := c.MsgOverheadMs + 1000*(1/1250.0+c.HostPerByteMs)
	// All four transmissions serialize: the last completes after 4 holds.
	want := SendCPUMs + nSenders*hold
	if math.Abs(lastDelivery-want) > 1e-9 {
		t.Errorf("last delivery = %v, want %v (serialized)", lastDelivery, want)
	}
}

// oneDCycle runs one synchronous 1-D border exchange of b-byte messages
// among p tasks on one cluster and returns the cycle elapsed time.
func oneDCycle(t *testing.T, cluster string, p int, b int) float64 {
	t.Helper()
	net := model.PaperTestbed()
	s, err := New(net)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]*Proc, p)
	var cycleEnd float64
	for i := 0; i < p; i++ {
		i := i
		procs[i] = s.Spawn("task", cluster, func(pr *Proc) {
			if i > 0 {
				pr.Send(procs[i-1], b, nil)
			}
			if i < p-1 {
				pr.Send(procs[i+1], b, nil)
			}
			if i > 0 {
				pr.Recv(procs[i-1])
			}
			if i < p-1 {
				pr.Recv(procs[i+1])
			}
			if end := pr.Now(); end > cycleEnd {
				cycleEnd = end
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return cycleEnd
}

func TestOneDCycleMatchesClosedForm(t *testing.T) {
	net := model.PaperTestbed()
	c := net.Cluster(model.Sparc2Cluster)
	for _, p := range []int{2, 4, 6} {
		for _, b := range []int{240, 2400} {
			got := oneDCycle(t, model.Sparc2Cluster, p, b)
			hold := c.MsgOverheadMs + float64(b)*(1/1250.0+c.HostPerByteMs)
			// 2(p-1) transmissions serialize; send/recv CPU adds a small tail.
			serial := 2 * float64(p-1) * hold
			if got < serial {
				t.Errorf("p=%d b=%d: cycle %v < serialized channel time %v", p, b, got, serial)
			}
			if got > serial+1.0 { // CPU costs are ≤ 4·0.05 + slack
				t.Errorf("p=%d b=%d: cycle %v far above channel time %v", p, b, got, serial)
			}
		}
	}
}

func TestOneDCycleContentionLinearInP(t *testing.T) {
	// The per-processor cost slope should be roughly constant (linear
	// contention), the property Eq. 1 captures.
	b := 2400
	c4 := func(p1, p2 int) float64 {
		return (oneDCycle(t, model.Sparc2Cluster, p2, b) - oneDCycle(t, model.Sparc2Cluster, p1, b)) / float64(p2-p1)
	}
	s1, s2 := c4(2, 4), c4(4, 6)
	if math.Abs(s1-s2) > 0.05*math.Abs(s1) {
		t.Errorf("contention not linear: slopes %v vs %v", s1, s2)
	}
}

func TestIPCCyclesSlowerThanSparc2(t *testing.T) {
	// Same segments, slower hosts: the IPC cluster's comm cycle must cost
	// more (the paper's per-cluster cost functions).
	sp := oneDCycle(t, model.Sparc2Cluster, 4, 2400)
	ipc := oneDCycle(t, model.IPCCluster, 4, 2400)
	if ipc <= sp {
		t.Errorf("ipc cycle %v should exceed sparc2 cycle %v", ipc, sp)
	}
}

// TestDeterminism runs one exchange twice at each of GOMAXPROCS 1, 2 and 4:
// which goroutine holds the baton, and how many cores there are to run it,
// must not change the end time, the channel statistics, the per-task
// statistics or the order and timing of deliveries.
func TestDeterminism(t *testing.T) {
	type delivery struct {
		from, to, bytes int
		sent, at        float64
	}
	run := func() (float64, []SegmentStats, []ProcStats, []delivery) {
		var seen []delivery
		net := model.PaperTestbed()
		s, _ := New(net, WithMessageObserver(func(d Delivery) {
			seen = append(seen, delivery{d.From.Rank(), d.To.Rank(), d.Bytes, d.SentAtMs, d.DeliveredAtMs})
		}))
		procs := make([]*Proc, 6)
		for i := 0; i < 6; i++ {
			i := i
			cl := model.Sparc2Cluster
			if i >= 3 {
				cl = model.IPCCluster
			}
			procs[i] = s.Spawn("t", cl, func(p *Proc) {
				for iter := 0; iter < 3; iter++ {
					p.AdvanceOps(5000, model.OpFloat)
					if i > 0 {
						p.Send(procs[i-1], 1200, nil)
					}
					if i < 5 {
						p.Send(procs[i+1], 1200, nil)
					}
					if i > 0 {
						p.Recv(procs[i-1])
					}
					if i < 5 {
						p.Recv(procs[i+1])
					}
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Now(), s.Stats(), s.ProcStats(), seen
	}
	was := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(was)
	t0, st0, ps0, d0 := run()
	if len(d0) != 30 {
		t.Fatalf("observer saw %d deliveries, want 30", len(d0))
	}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 2; rep++ {
			t1, st1, ps1, d1 := run()
			if t1 != t0 {
				t.Errorf("GOMAXPROCS %d: end time %v, want %v", procs, t1, t0)
			}
			if !reflect.DeepEqual(st1, st0) {
				t.Errorf("GOMAXPROCS %d: segment stats %+v, want %+v", procs, st1, st0)
			}
			if !reflect.DeepEqual(ps1, ps0) {
				t.Errorf("GOMAXPROCS %d: proc stats %+v, want %+v", procs, ps1, ps0)
			}
			if !reflect.DeepEqual(d1, d0) {
				t.Errorf("GOMAXPROCS %d: delivery sequence differs", procs)
			}
		}
	}
}

// runBounded runs s, failing the test instead of hanging if Run does not
// return: a wake handed to a finished task would block forever.
func runBounded(t *testing.T, s *Sim) error {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- s.Run() }()
	select {
	case err := <-errc:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return")
		return nil
	}
}

// settledGoroutines waits for the goroutine count to fall to want: a task
// goroutine Run has joined may still be on its way out of the runtime.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 1000 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// steadyGoroutines returns the goroutine count once it has held still for
// 20 ms (or after a second): an earlier test's goroutine that its Run joined
// may still be on its way out when this one starts.
func steadyGoroutines() int {
	n := runtime.NumGoroutine()
	for i, still := 0, 0; i < 1000 && still < 20; i++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return n
}

// TestNoGoroutineOutlivesRun: after a deadlocked run, a run in which a task
// panicked while others waited on it, and a clean run, every task goroutine
// is gone. The blocked tasks are unwound through their deferred calls.
func TestNoGoroutineOutlivesRun(t *testing.T) {
	base := steadyGoroutines()

	s, _ := New(model.PaperTestbed())
	var procs [3]*Proc
	unwound := 0
	procs[0] = s.Spawn("a", model.Sparc2Cluster, func(p *Proc) {
		defer func() { unwound++ }()
		p.Recv(procs[1]) // never sent
	})
	procs[1] = s.Spawn("b", model.Sparc2Cluster, func(p *Proc) {
		defer func() { unwound++ }()
		defer p.Advance(1) // parking while Run unwinds must not hang Run
		p.Recv(procs[0])
	})
	procs[2] = s.Spawn("c", model.Sparc2Cluster, func(p *Proc) { p.Advance(2) })
	err := runBounded(t, s)
	if err == nil || err.Error() != "simnet: deadlock, 2 tasks blocked: [a (recv from rank 1) b (recv from rank 0)]" {
		t.Errorf("deadlocked Run() = %v", err)
	}
	if unwound != 2 {
		t.Errorf("%d blocked tasks ran their deferred calls, want 2", unwound)
	}
	if n := settledGoroutines(base); n != base {
		t.Errorf("after a deadlocked Run: %d goroutines, want %d", n, base)
	}

	s, _ = New(model.PaperTestbed())
	boomer := s.Spawn("boomer", model.Sparc2Cluster, func(p *Proc) {
		p.Advance(1)
		panic("boom")
	})
	s.Spawn("waiter", model.IPCCluster, func(p *Proc) { p.Recv(boomer) })
	if err := runBounded(t, s); err == nil || err.Error() != "simnet: task boomer panicked: boom" {
		t.Errorf("panicked Run() = %v", err)
	}
	if n := settledGoroutines(base); n != base {
		t.Errorf("after a panicked Run: %d goroutines, want %d", n, base)
	}

	oneDCycle(t, model.Sparc2Cluster, 4, 240)
	if n := settledGoroutines(base); n != base {
		t.Errorf("after a clean Run: %d goroutines, want %d", n, base)
	}
}

// TestSelfWakeDoesNotSwitch: a task that is the next one due carries on
// without a goroutine switch, so the hand-offs of a run do not grow with
// the number of Advances a task makes while its peer waits.
func TestSelfWakeDoesNotSwitch(t *testing.T) {
	countHandoffs = true
	t.Cleanup(func() { countHandoffs = false })
	for _, n := range []int{10, 1000} {
		s, _ := New(model.PaperTestbed())
		var a, b *Proc
		a = s.Spawn("a", model.Sparc2Cluster, func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Advance(1)
			}
			p.Send(b, 100, nil)
		})
		b = s.Spawn("b", model.Sparc2Cluster, func(p *Proc) { p.Recv(a) })
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		// Run → a; a's first Advance → b (still due at t=0); b's Recv → a;
		// a's delivery → b. Every other wake is the parking task's own.
		if s.handoffs != 4 {
			t.Errorf("%d Advances: %d hand-offs, want 4", n, s.handoffs)
		}
	}
}

func TestDeadlockDetected(t *testing.T) {
	s, _ := New(model.PaperTestbed())
	var procs [2]*Proc
	procs[0] = s.Spawn("a", model.Sparc2Cluster, func(p *Proc) {
		p.Recv(procs[1]) // waits forever
	})
	procs[1] = s.Spawn("b", model.Sparc2Cluster, func(p *Proc) {
		p.Advance(1)
	})
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("Run() = %v, want deadlock error", err)
	}
}

func TestRecvPreservesPerSenderOrder(t *testing.T) {
	s, _ := New(model.PaperTestbed())
	var procs [2]*Proc
	var got []int
	procs[0] = s.Spawn("sender", model.Sparc2Cluster, func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Send(procs[1], 100, i)
		}
	})
	procs[1] = s.Spawn("receiver", model.Sparc2Cluster, func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, p.Recv(procs[0]).Payload.(int))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("messages reordered: %v", got)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	s, _ := New(model.PaperTestbed())
	var procs [2]*Proc
	procs[0] = s.Spawn("a", model.Sparc2Cluster, func(p *Proc) {
		p.Advance(3)
		p.Send(procs[1], 500, nil)
	})
	procs[1] = s.Spawn("b", model.IPCCluster, func(p *Proc) {
		p.Recv(procs[0])
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	stats := s.Stats()
	if len(stats) != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	// Cross-segment: both segments carry the message once.
	for _, st := range stats {
		if st.Messages != 1 || st.Bytes != 500 {
			t.Errorf("segment %s: %+v, want 1 message of 500 bytes", st.Name, st)
		}
		if st.BusyMs <= 0 {
			t.Errorf("segment %s: zero busy time", st.Name)
		}
	}
	ps := s.ProcStats()
	if ps[0].Sent != 1 || ps[1].Received != 1 {
		t.Errorf("proc stats = %+v", ps)
	}
	if ps[0].ComputeMs < 3 {
		t.Errorf("proc a compute = %v, want ≥ 3", ps[0].ComputeMs)
	}
}

func TestSpawnUnknownClusterPanics(t *testing.T) {
	s, _ := New(model.PaperTestbed())
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.Spawn("x", "nonexistent", func(*Proc) {})
}

func TestNegativeAdvancePanics(t *testing.T) {
	s, _ := New(model.PaperTestbed())
	var panicked bool
	s.Spawn("x", model.Sparc2Cluster, func(p *Proc) {
		defer func() { panicked = recover() != nil }()
		p.Advance(-1)
	})
	_ = s.Run()
	if !panicked {
		t.Error("negative Advance should panic")
	}
}

func TestBodyPanicSurfacesFromRun(t *testing.T) {
	s, _ := New(model.PaperTestbed())
	s.Spawn("boomer", model.Sparc2Cluster, func(p *Proc) { panic("boom") })
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("Run() = %v, want panic error", err)
	}
}

func TestNewRejectsInvalidNetwork(t *testing.T) {
	if _, err := New(&model.Network{}); err == nil {
		t.Error("New should validate the network")
	}
}

// Property: the 1-D communication cycle cost is monotone non-decreasing in
// both the processor count and the message size (the premise behind the
// Eq. 1 cost model's positive slopes).
func TestCycleMonotoneProperty(t *testing.T) {
	memo := map[[2]int]float64{}
	cycle := func(p, b int) float64 {
		key := [2]int{p, b}
		if v, ok := memo[key]; ok {
			return v
		}
		v := oneDCycle(t, model.Sparc2Cluster, p, b)
		memo[key] = v
		return v
	}
	f := func(pRaw, bRaw uint8) bool {
		p := int(pRaw%4) + 2 // 2..5
		b := (int(bRaw%16) + 1) * 256
		base := cycle(p, b)
		return cycle(p+1, b) >= base && cycle(p, b+256) >= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestJitterReproducibleAndBounded(t *testing.T) {
	run := func(seed uint64) float64 {
		net := model.PaperTestbed()
		s, err := New(net, WithJitter(0.3, seed))
		if err != nil {
			t.Fatal(err)
		}
		procs := make([]*Proc, 4)
		for i := 0; i < 4; i++ {
			i := i
			procs[i] = s.Spawn("t", model.Sparc2Cluster, func(p *Proc) {
				if i > 0 {
					p.Send(procs[i-1], 1200, nil)
					p.Recv(procs[i-1])
				}
				if i < 3 {
					p.Send(procs[i+1], 1200, nil)
					p.Recv(procs[i+1])
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Now()
	}
	a1, a2, b := run(7), run(7), run(8)
	if a1 != a2 {
		t.Errorf("same seed, different elapsed: %v vs %v", a1, a2)
	}
	if a1 == b {
		t.Errorf("different seeds produced identical elapsed %v", a1)
	}
	// Bounded around the deterministic value.
	net := model.PaperTestbed()
	clean := func() float64 {
		s, _ := New(net)
		procs := make([]*Proc, 4)
		for i := 0; i < 4; i++ {
			i := i
			procs[i] = s.Spawn("t", model.Sparc2Cluster, func(p *Proc) {
				if i > 0 {
					p.Send(procs[i-1], 1200, nil)
					p.Recv(procs[i-1])
				}
				if i < 3 {
					p.Send(procs[i+1], 1200, nil)
					p.Recv(procs[i+1])
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Now()
	}()
	if a1 < clean*0.5 || a1 > clean*1.5 {
		t.Errorf("jittered elapsed %v far from nominal %v", a1, clean)
	}
}

// TestEventQueueOrder: the typed heap pops in the order of a stable sort on
// time, which, with sequence numbers handed out in push order, is the
// (at, seq) order the simulator relies on. Times come from a handful of
// values, so most pops break a tie, and pops are interleaved with pushes
// at random, including runs that drain the queue.
func TestEventQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1994))
	var q eventQueue
	var pending []*event // in push order
	var seq int64
	for step := 0; step < 20000; step++ {
		if len(pending) == 0 || rng.Intn(3) != 0 {
			seq++
			ev := &event{at: float64(rng.Intn(8)) / 4, seq: seq}
			q.push(ev)
			pending = append(pending, ev)
			continue
		}
		sort.SliceStable(pending, func(i, j int) bool { return pending[i].at < pending[j].at })
		want := pending[0]
		pending = pending[1:]
		if got := q.pop(); got != want {
			t.Fatalf("step %d: popped (%v, %d), want (%v, %d)", step, got.at, got.seq, want.at, want.seq)
		}
		if len(q) != len(pending) {
			t.Fatalf("step %d: queue holds %d events, want %d", step, len(q), len(pending))
		}
	}
}

// TestMsgQueueOrder: the mailbox queue is FIFO across its head advancing,
// its slide to the front when full and its growth, under random pushes
// and pops; and a queue that drains between pushes keeps its array.
func TestMsgQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2741))
	var q msgQueue
	var want []*Message
	for step := 0; step < 20000; step++ {
		if len(want) == 0 || rng.Intn(2) == 0 {
			m := &Message{Bytes: step}
			q.push(m)
			want = append(want, m)
		} else if got := q.pop(); got != want[0] {
			t.Fatalf("step %d: popped message %d, want %d", step, got.Bytes, want[0].Bytes)
		} else {
			want = want[1:]
		}
		if q.len() != len(want) {
			t.Fatalf("step %d: queue holds %d messages, want %d", step, q.len(), len(want))
		}
	}
	var drained msgQueue
	drained.push(&Message{})
	drained.push(&Message{})
	before := &drained.items[:1][0]
	for i := 0; i < 100; i++ {
		drained.pop()
		drained.push(&Message{})
	}
	if &drained.items[:1][0] != before {
		t.Error("a queue held at two messages reallocated its array")
	}
}
