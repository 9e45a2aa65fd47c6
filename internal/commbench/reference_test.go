package commbench

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"netpart/internal/model"
	"netpart/internal/simnet"
	"netpart/internal/topo"
)

// The four benchmark programs written as goroutine tasks, each a plain
// loop of blocking Sends and Recvs. They are the reference the step-task
// programs must match bit for bit.

func goroutineCycle(net *model.Network, cluster string, tp topo.Topology, p, b, cycles int, opts ...simnet.Option) (float64, error) {
	sim, err := simnet.New(net, opts...)
	if err != nil {
		return 0, err
	}
	procs := make([]*simnet.Proc, p)
	for i := 0; i < p; i++ {
		rank := i
		procs[i] = sim.Spawn(fmt.Sprintf("bench-%d", rank), cluster, func(pr *simnet.Proc) {
			ns := tp.Neighbors(rank, p)
			for c := 0; c < cycles; c++ {
				for _, nb := range ns {
					pr.Send(procs[nb], b, nil)
				}
				for _, nb := range ns {
					pr.Recv(procs[nb])
				}
			}
		})
	}
	if err := sim.Run(); err != nil {
		return 0, err
	}
	return sim.Now() / float64(cycles), nil
}

func goroutineDelivery(net *model.Network, src, dst string, b int) (float64, error) {
	sim, err := simnet.New(net)
	if err != nil {
		return 0, err
	}
	var delivered float64
	var procs [2]*simnet.Proc
	procs[0] = sim.Spawn("src", src, func(pr *simnet.Proc) {
		pr.Send(procs[1], b, nil)
	})
	procs[1] = sim.Spawn("dst", dst, func(pr *simnet.Proc) {
		msg := pr.Recv(procs[0])
		delivered = msg.DeliveredAt
	})
	if err := sim.Run(); err != nil {
		return 0, err
	}
	return delivered, nil
}

func goroutineSendCPU(net *model.Network, src, dst string, b int) (float64, error) {
	sim, err := simnet.New(net)
	if err != nil {
		return 0, err
	}
	var cpu float64
	var procs [2]*simnet.Proc
	procs[0] = sim.Spawn("src", src, func(pr *simnet.Proc) {
		t0 := pr.Now()
		pr.Send(procs[1], b, nil)
		cpu = pr.Now() - t0
	})
	procs[1] = sim.Spawn("dst", dst, func(pr *simnet.Proc) {
		pr.Recv(procs[0])
	})
	if err := sim.Run(); err != nil {
		return 0, err
	}
	return cpu, nil
}

// sameBits fails t unless the step program's result equals the goroutine
// reference's bit for bit.
func sameBits(t *testing.T, what string, step, ref float64, stepErr, refErr error) {
	t.Helper()
	if stepErr != nil || refErr != nil {
		t.Fatalf("%s: step error %v, reference error %v", what, stepErr, refErr)
	}
	if math.Float64bits(step) != math.Float64bits(ref) {
		t.Errorf("%s: step program %v, goroutine reference %v", what, step, ref)
	}
}

var referenceNetworks = map[string]func() *model.Network{
	"paper":      model.PaperTestbed,
	"metasystem": model.MetasystemTestbed,
	"figure1":    model.Figure1Network,
}

// TestCycleMatchesGoroutineReference: MeasureCycle's step tasks give the
// goroutine program's cycle time bit for bit, on every cluster of three
// testbeds, with four topologies at every p, at three message sizes, with
// and without jitter.
func TestCycleMatchesGoroutineReference(t *testing.T) {
	cycles := DefaultGrid().Cycles
	tops := []topo.Topology{topo.OneD{}, topo.Broadcast{}, topo.Mesh2D{}, topo.Ring{}}
	cases := 0
	for name, mk := range referenceNetworks {
		net := mk()
		for _, c := range net.Clusters {
			for _, tp := range tops {
				for p := 2; p <= c.Procs; p++ {
					for _, b := range []int{240, 1200, 4800} {
						for _, jitter := range []float64{0, 0.2} {
							var opts []simnet.Option
							if jitter > 0 {
								opts = append(opts, simnet.WithJitter(jitter, 1994+uint64(p)*131+uint64(b)))
							}
							step, serr := measureCycle(net, c.Name, tp, p, b, cycles, opts...)
							ref, rerr := goroutineCycle(net, c.Name, tp, p, b, cycles, opts...)
							sameBits(t, fmt.Sprintf("%s %s %s p=%d b=%d jitter=%v", name, c.Name, tp.Name(), p, b, jitter), step, ref, serr, rerr)
							cases++
						}
					}
				}
			}
		}
	}
	if cases != 864 {
		t.Errorf("%d cases, want 864", cases)
	}
}

// TestPairsMatchGoroutineReference: MeasureDelivery and MeasureSendCPU give
// the goroutine programs' times bit for bit for every ordered cluster pair
// of three testbeds, a cluster with itself and the pairs that coerce
// included, at every size of the default grid.
func TestPairsMatchGoroutineReference(t *testing.T) {
	coercing := 0
	for name, mk := range referenceNetworks {
		net := mk()
		for _, a := range net.Clusters {
			for _, c := range net.Clusters {
				if net.NeedsCoercion(a.Name, c.Name) {
					coercing++
				}
				for _, b := range DefaultGrid().Bytes {
					what := fmt.Sprintf("%s %s→%s b=%d", name, a.Name, c.Name, b)
					step, serr := measureDelivery(net, a.Name, c.Name, b)
					ref, rerr := goroutineDelivery(net, a.Name, c.Name, b)
					sameBits(t, "delivery "+what, step, ref, serr, rerr)
					step, serr = measureSendCPU(net, a.Name, c.Name, b)
					ref, rerr = goroutineSendCPU(net, a.Name, c.Name, b)
					sameBits(t, "send CPU "+what, step, ref, serr, rerr)
				}
			}
		}
	}
	if coercing == 0 {
		t.Error("no ordered pair coerces: the coercion charge went unchecked")
	}
}

// goroutineStagger is the stagger program as goroutine tasks: p ranks on
// cluster a, or one on a and one on c when c is set, in a 1-D chain.
func goroutineStagger(net *model.Network, a, c string, p, b, cycles int, opts ...simnet.Option) (float64, error) {
	if c != "" {
		p = 2
	} else {
		c = a
	}
	sim, err := simnet.New(net, opts...)
	if err != nil {
		return 0, err
	}
	procs := make([]*simnet.Proc, p)
	for i := 0; i < p; i++ {
		rank, cluster := i, c
		if rank == 0 {
			cluster = a
		}
		procs[i] = sim.Spawn(fmt.Sprintf("bench-%d", rank), cluster, func(pr *simnet.Proc) {
			ns := topo.OneD{}.Neighbors(rank, p)
			for range cycles {
				for _, nb := range ns {
					pr.Send(procs[nb], b, nil)
				}
				for _, nb := range ns {
					pr.Recv(procs[nb])
				}
				pr.Advance(StaggerComputeMs)
			}
		})
	}
	if err := sim.Run(); err != nil {
		return 0, err
	}
	return sim.Now()/float64(cycles) - StaggerComputeMs, nil
}

// TestStaggerMatchesGoroutineReference: the stagger program's step tasks
// (Compute included) give the goroutine program's stagger bit for bit, on
// every cluster of three testbeds at every p and on every ordered pair of
// clusters at one rank each, at every size of the default grid, with and
// without jitter. Without jitter a pair's stagger does not depend on the
// pair's order, so the one the plan measures stands for both.
func TestStaggerMatchesGoroutineReference(t *testing.T) {
	grid := DefaultGrid()
	jitterOpts := func(jitter float64, p, b int) []simnet.Option {
		if jitter == 0 {
			return nil
		}
		return []simnet.Option{simnet.WithJitter(jitter, 1994+uint64(p)*131+uint64(b))}
	}
	cases, symmetric := 0, 0
	for name, mk := range referenceNetworks {
		net := mk()
		for _, a := range net.Clusters {
			for _, c := range append([]*model.Cluster{nil}, net.Clusters...) {
				other, top := "", a.Procs
				if c != nil {
					if c == a {
						continue
					}
					other, top = c.Name, 2
				}
				for p := 2; p <= top; p++ {
					for _, b := range grid.Bytes {
						for _, jitter := range []float64{0, 0.2} {
							opts := jitterOpts(jitter, p, b)
							step, serr := measureStagger(net, a.Name, other, p, b, opts...)
							ref, rerr := goroutineStagger(net, a.Name, other, p, b, StaggerCycles, opts...)
							sameBits(t, fmt.Sprintf("%s %s %s p=%d b=%d jitter=%v", name, a.Name, other, p, b, jitter), step, ref, serr, rerr)
							cases++
							if other == "" || jitter != 0 || (b != slices.Min(grid.Bytes) && b != slices.Max(grid.Bytes)) {
								continue
							}
							back, err := measureStagger(net, other, a.Name, 2, b)
							sameBits(t, fmt.Sprintf("%s %s-%s b=%d reversed", name, a.Name, other, b), back, step, err, nil)
							symmetric++
						}
					}
				}
			}
		}
	}
	// Per size and jitter: paper 10 single-cluster ps and 2 ordered
	// pairs, metasystem 17 and 6, Fig. 1 9 and 6.
	if want := 50 * len(grid.Bytes) * 2; cases != want {
		t.Errorf("%d cases, want %d", cases, want)
	}
	if symmetric != 28 {
		t.Errorf("%d reversed pairs checked, want 28", symmetric)
	}
}
