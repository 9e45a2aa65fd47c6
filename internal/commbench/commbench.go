// Package commbench implements the paper's offline benchmarking step
// (Section 3.0): topology-specific communication programs are executed on
// the (simulated) network for a grid of message sizes and processor counts,
// and Eq. 1 cost functions are fitted to the measurements by least squares.
// The resulting cost.Table is what the runtime partitioning method consults
// — it never sees the simulator's raw parameters, so predictions versus
// simulated measurements are a genuine test of the method.
//
//netpart:deterministic
package commbench

import (
	"fmt"
	"sort"

	"netpart/internal/cost"
	"netpart/internal/model"
	"netpart/internal/simnet"
	"netpart/internal/topo"
)

// Grid describes the benchmark sweep.
type Grid struct {
	// Bytes are the message sizes to measure.
	Bytes []int
	// Cycles is how many synchronous communication cycles each measurement
	// averages over.
	Cycles int
	// Jitter adds ±Jitter relative noise to the simulated channel holds
	// (seeded by Seed), making the fits genuine averages as on real UDP.
	Jitter float64
	Seed   uint64
}

// DefaultGrid mirrors the paper's benchmarking of different p and b values.
func DefaultGrid() Grid {
	return Grid{
		Bytes:  []int{240, 1200, 2400, 4800},
		Cycles: 10,
	}
}

// MeasureCycle runs the topology-specific communication program: p tasks on
// one cluster perform `cycles` synchronous communication cycles (an
// asynchronous send to each neighbor, then a blocking receive from each)
// with b-byte messages. It returns the average elapsed time per cycle in
// milliseconds.
func MeasureCycle(net *model.Network, cluster string, tp topo.Topology, p, b, cycles int, opts ...simnet.Option) (float64, error) {
	if p < 2 {
		return 0, fmt.Errorf("commbench: need at least 2 tasks, got %d", p)
	}
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

// MeasureDelivery returns the one-way delivery latency in milliseconds of a
// single b-byte message from a task on cluster src to a task on cluster
// dst.
func MeasureDelivery(net *model.Network, src, dst string, b int) (float64, error) {
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

// MeasureSendCPU returns the virtual time a Send call occupies the sending
// task for a b-byte message from cluster src to cluster dst (which includes
// the per-byte coercion cost when formats differ).
func MeasureSendCPU(net *model.Network, src, dst string, b int) (float64, error) {
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

// ClusterFit records the fitted constants and fit quality for one
// (cluster, topology) model.
type ClusterFit struct {
	Cluster  string
	Topology string
	Params   cost.Params
	Quality  cost.FitQuality
	Samples  int
}

// Result is the full output of a benchmarking run: a ready-to-use cost
// table plus the per-model fit diagnostics.
type Result struct {
	Table  *cost.Table
	Fits   []ClusterFit
	Router map[[2]string]cost.PerByte
	Coerce map[[2]string]cost.PerByte
}

// Run benchmarks every cluster of the network over the given topologies and
// grid, fits Eq. 1 per (cluster, topology), fits per-byte router and
// coercion penalties per cross-segment cluster pair, and assembles the cost
// table the partitioner consumes.
func Run(net *model.Network, topologies []topo.Topology, grid Grid) (*Result, error) {
	if len(grid.Bytes) < 2 {
		return nil, fmt.Errorf("commbench: need ≥ 2 message sizes, got %d", len(grid.Bytes))
	}
	if grid.Cycles <= 0 {
		grid.Cycles = 1
	}
	res := &Result{
		Table:  cost.NewTable(),
		Router: make(map[[2]string]cost.PerByte),
		Coerce: make(map[[2]string]cost.PerByte),
	}
	for _, c := range net.Clusters {
		if c.Procs < 3 {
			return nil, fmt.Errorf("commbench: cluster %q has only %d processors; need ≥ 3 to vary p", c.Name, c.Procs)
		}
		for _, tp := range topologies {
			var obs []cost.Observation
			for p := 2; p <= c.Procs; p++ {
				for _, b := range grid.Bytes {
					var opts []simnet.Option
					if grid.Jitter > 0 {
						opts = append(opts, simnet.WithJitter(grid.Jitter, grid.Seed+uint64(p)*131+uint64(b)))
					}
					ms, err := MeasureCycle(net, c.Name, tp, p, b, grid.Cycles, opts...)
					if err != nil {
						return nil, fmt.Errorf("commbench: %s/%s p=%d b=%d: %w", c.Name, tp.Name(), p, b, err)
					}
					obs = append(obs, cost.Observation{B: float64(b), P: p, Ms: ms})
				}
			}
			params, err := cost.Fit(obs)
			if err != nil {
				return nil, fmt.Errorf("commbench: fitting %s/%s: %w", c.Name, tp.Name(), err)
			}
			res.Table.SetComm(c.Name, tp.Name(), params)
			res.Fits = append(res.Fits, ClusterFit{
				Cluster: c.Name, Topology: tp.Name(),
				Params: params, Quality: cost.Quality(params, obs), Samples: len(obs),
			})
		}
	}
	// Cross-segment pair penalties.
	for i, ci := range net.Clusters {
		for _, cj := range net.Clusters[i+1:] {
			if net.SameSegment(ci.Name, cj.Name) {
				continue
			}
			if err := fitPair(net, ci.Name, cj.Name, grid, res); err != nil {
				return nil, err
			}
		}
	}
	sort.Slice(res.Fits, func(a, b int) bool {
		if res.Fits[a].Cluster != res.Fits[b].Cluster {
			return res.Fits[a].Cluster < res.Fits[b].Cluster
		}
		return res.Fits[a].Topology < res.Fits[b].Topology
	})
	return res, nil
}

// fitPair measures and fits the router (and, for differing formats,
// coercion) penalties between two clusters. The router penalty is isolated
// as d_ij - d_ii - d_jj over the byte grid: the within-cluster deliveries
// cancel the per-cluster channel terms, leaving the router's contribution
// (the constant absorbs the send-CPU terms; only the slope matters for
// Eq. 1 composition).
func fitPair(net *model.Network, a, b string, grid Grid, res *Result) error {
	var routerObs, coerceObs []cost.Observation
	needsCoerce := net.NeedsCoercion(a, b)
	for _, bytes := range grid.Bytes {
		dij, err := MeasureDelivery(net, a, b, bytes)
		if err != nil {
			return err
		}
		dii, err := MeasureDelivery(net, a, a, bytes)
		if err != nil {
			return err
		}
		djj, err := MeasureDelivery(net, b, b, bytes)
		if err != nil {
			return err
		}
		router := dij - dii - djj
		if needsCoerce {
			// Separate the sender-side coercion cost from the wire path.
			cpuCross, err := MeasureSendCPU(net, a, b, bytes)
			if err != nil {
				return err
			}
			cpuLocal, err := MeasureSendCPU(net, a, a, bytes)
			if err != nil {
				return err
			}
			coerce := cpuCross - cpuLocal
			coerceObs = append(coerceObs, cost.Observation{B: float64(bytes), Ms: coerce})
			router -= coerce
		}
		routerObs = append(routerObs, cost.Observation{B: float64(bytes), Ms: router})
	}
	rfit, err := cost.FitPerByte(routerObs)
	if err != nil {
		return fmt.Errorf("commbench: fitting router %s-%s: %w", a, b, err)
	}
	// Only the per-byte slope composes into Eq. 1 (the constant is a
	// measurement artifact of cancelling send-CPU terms).
	router := cost.PerByte{Ms: rfit.Ms}
	res.Table.SetRouter(a, b, router)
	res.Router[[2]string{a, b}] = router
	if needsCoerce {
		cfit, err := cost.FitPerByte(coerceObs)
		if err != nil {
			return fmt.Errorf("commbench: fitting coercion %s-%s: %w", a, b, err)
		}
		coerce := cost.PerByte{Ms: cfit.Ms}
		res.Table.SetCoerce(a, b, coerce)
		res.Coerce[[2]string{a, b}] = coerce
	}
	return nil
}
