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
	"runtime"
	"slices"
	"sort"

	"netpart/internal/cost"
	"netpart/internal/model"
	"netpart/internal/parallel"
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
	ranks := make([]rank, p)
	for i := range ranks {
		ns := tp.Neighbors(i, p)
		ranks[i] = rank{procs: procs, to: ns, from: ns, b: b, rounds: cycles}
		procs[i] = sim.SpawnStep(fmt.Sprintf("bench-%d", i), cluster, ranks[i].step)
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
	ranks, err := oneMessage(net, src, dst, b)
	if err != nil {
		return 0, err
	}
	return ranks[1].delivered, nil
}

// MeasureSendCPU returns the virtual time a Send call occupies the sending
// task for a b-byte message from cluster src to cluster dst (which includes
// the per-byte coercion cost when formats differ).
func MeasureSendCPU(net *model.Network, src, dst string, b int) (float64, error) {
	ranks, err := oneMessage(net, src, dst, b)
	if err != nil {
		return 0, err
	}
	return ranks[0].end, nil // the sender starts at virtual time 0
}

// oneMessage runs the program of MeasureDelivery and MeasureSendCPU: a task
// on cluster src sends one b-byte message to a task on cluster dst.
func oneMessage(net *model.Network, src, dst string, b int) (*[2]rank, error) {
	sim, err := simnet.New(net)
	if err != nil {
		return nil, err
	}
	procs := make([]*simnet.Proc, 2)
	ranks := &[2]rank{
		{procs: procs, to: []int{1}, b: b, rounds: 1},
		{procs: procs, from: []int{0}, rounds: 1},
	}
	procs[0] = sim.SpawnStep("src", src, ranks[0].step)
	procs[1] = sim.SpawnStep("dst", dst, ranks[1].step)
	if err := sim.Run(); err != nil {
		return nil, err
	}
	return ranks, nil
}

// rank is one task of a benchmark program, run as a simnet step task: for
// each of rounds, a b-byte send to each of to and then a receive from each
// of from (indices into procs), and then finish. It is the loop
//
//	for range rounds {
//		for _, i := range to { pr.Send(procs[i], b, nil) }
//		for _, i := range from { delivered = pr.Recv(procs[i]).DeliveredAt }
//	}
//
// taken one send or receive per wake.
type rank struct {
	procs     []*simnet.Proc
	to, from  []int
	b, rounds int
	// round and op are where the loop stands: op < len(to) is the next
	// send, and after those the next receive is from[op-len(to)].
	round, op int
	// end is the virtual time of finishing, delivered that of the last
	// message received reaching the mailbox.
	end, delivered float64
}

func (r *rank) step(pr *simnet.Proc) {
	n := len(r.to)
	switch {
	case r.round == r.rounds || n+len(r.from) == 0:
		r.end = pr.Now()
		pr.Finish()
		return
	case r.op < n:
		pr.StartSend(r.procs[r.to[r.op]], r.b, nil)
	default:
		msg, ok := pr.TryRecv(r.procs[r.from[r.op-n]])
		if !ok {
			return
		}
		r.delivered = msg.DeliveredAt
	}
	if r.op++; r.op == n+len(r.from) {
		r.round, r.op = r.round+1, 0
	}
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
//
// It first lists every measurement the fits need, then runs each distinct
// program once on a pool of GOMAXPROCS workers (each in its own simulator,
// its result in its own slot), and then fits in serial order. The
// simulator runs in virtual time, so the result is bit-identical at any
// worker count.
func Run(net *model.Network, topologies []topo.Topology, grid Grid) (*Result, error) {
	pl, err := newPlan(net, topologies, grid)
	if err != nil {
		return nil, err
	}
	ms, err := pl.run()
	if err != nil {
		return nil, err
	}
	return pl.fit(ms)
}

// plan is a benchmarking run listed before anything is measured: the
// distinct programs in the order first asked for, and the fits that read
// their results by slot.
type plan struct {
	net        *model.Network
	topologies []topo.Topology
	grid       Grid
	same       [][]int // same[p][t]: the first topology with t's neighbour lists at p
	progs      []program
	index      map[program]int
	fits       []cycleFit
	pairs      []pairFit
}

// newPlan lists every measurement Run's fits need, in Run's serial order.
func newPlan(net *model.Network, topologies []topo.Topology, grid Grid) (*plan, error) {
	if len(grid.Bytes) < 2 {
		return nil, fmt.Errorf("commbench: need ≥ 2 message sizes, got %d", len(grid.Bytes))
	}
	if grid.Cycles <= 0 {
		grid.Cycles = 1
	}
	pl := &plan{net: net, topologies: topologies, grid: grid, index: make(map[program]int)}
	for _, c := range net.Clusters {
		if c.Procs < 3 {
			return nil, fmt.Errorf("commbench: cluster %q has only %d processors; need ≥ 3 to vary p", c.Name, c.Procs)
		}
		for ti := range topologies {
			f := cycleFit{cluster: c.Name, topology: topologies[ti].Name()}
			for p := 2; p <= c.Procs; p++ {
				for _, b := range grid.Bytes {
					f.obs = append(f.obs, cost.Observation{B: float64(b), P: p})
					f.slots = append(f.slots, pl.cycle(c.Name, ti, p, b))
				}
			}
			pl.fits = append(pl.fits, f)
		}
	}
	for i, ci := range net.Clusters {
		for _, cj := range net.Clusters[i+1:] {
			if !net.SameSegment(ci.Name, cj.Name) {
				pl.pairs = append(pl.pairs, pl.pair(ci.Name, cj.Name))
			}
		}
	}
	return pl, nil
}

// run measures every listed program on a GOMAXPROCS-wide pool and returns
// the results by slot.
func (pl *plan) run() ([]float64, error) {
	grid := pl.grid
	ms := make([]float64, len(pl.progs))
	err := parallel.For(runtime.GOMAXPROCS(0), len(pl.progs), func(i int) error {
		pr := pl.progs[i]
		// A program of step tasks never blocks, so a worker would run one
		// after another while a GC cycle's mark worker waits for a
		// processor, its write barriers on all the while; yield between
		// programs.
		defer runtime.Gosched()
		var err error
		switch pr.kind {
		case progCycle:
			var opts []simnet.Option
			if grid.Jitter > 0 {
				opts = append(opts, simnet.WithJitter(grid.Jitter, grid.Seed+uint64(pr.p)*131+uint64(pr.b)))
			}
			tp := pl.topologies[pr.topology]
			if ms[i], err = MeasureCycle(pl.net, pr.src, tp, pr.p, pr.b, grid.Cycles, opts...); err != nil {
				err = fmt.Errorf("commbench: %s/%s p=%d b=%d: %w", pr.src, tp.Name(), pr.p, pr.b, err)
			}
		case progDelivery:
			ms[i], err = MeasureDelivery(pl.net, pr.src, pr.dst, pr.b)
		case progSendCPU:
			ms[i], err = MeasureSendCPU(pl.net, pr.src, pr.dst, pr.b)
		}
		return err
	})
	return ms, err
}

// fit fits every listed model from the measured slots, in Run's serial
// order, and assembles the Result.
func (pl *plan) fit(ms []float64) (*Result, error) {
	res := &Result{
		Table:  cost.NewTable(),
		Router: make(map[[2]string]cost.PerByte),
		Coerce: make(map[[2]string]cost.PerByte),
	}
	for _, f := range pl.fits {
		for i, slot := range f.slots {
			f.obs[i].Ms = ms[slot]
		}
		params, err := cost.Fit(f.obs)
		if err != nil {
			return nil, fmt.Errorf("commbench: fitting %s/%s: %w", f.cluster, f.topology, err)
		}
		res.Table.SetComm(f.cluster, f.topology, params)
		res.Fits = append(res.Fits, ClusterFit{
			Cluster: f.cluster, Topology: f.topology,
			Params: params, Quality: cost.Quality(params, f.obs), Samples: len(f.obs),
		})
	}
	for _, pf := range pl.pairs {
		if err := pf.fit(ms, res); err != nil {
			return nil, err
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

// cycleFit is one (cluster, topology) Eq. 1 fit: its observations in grid
// order, and the slot of the program that measures each.
type cycleFit struct {
	cluster, topology string
	obs               []cost.Observation
	slots             []int
}

// pairFit is one cross-segment pair's router (and coercion) fit: per
// message size, the slots of the deliveries d_ab, d_aa and d_bb and, when
// the formats differ, of the send-CPU times a→b and a→a.
type pairFit struct {
	a, b        string
	bytes       []int
	needsCoerce bool
	slots       [][5]int
}

// progKind is what a program measures.
type progKind uint8

const (
	progCycle    progKind = iota // MeasureCycle
	progDelivery                 // MeasureDelivery
	progSendCPU                  // MeasureSendCPU
)

// program is one simulator run. Two measurements are the same program when
// they run the same tasks on the same cluster with the same messages: a
// cycle's topology is the first of Run's topologies that gives every rank
// the same neighbour list at p (broadcast at p = 2 is 1-D; so is 2-D at a
// prime p), and its jitter seed depends only on (p, b).
type program struct {
	kind     progKind
	src, dst string // dst is empty for a cycle
	topology int    // index into the plan's topologies; cycles only
	p, b     int
}

// add returns pr's slot, listing it if it is new.
func (pl *plan) add(pr program) int {
	if i, ok := pl.index[pr]; ok {
		return i
	}
	pl.index[pr] = len(pl.progs)
	pl.progs = append(pl.progs, pr)
	return len(pl.progs) - 1
}

// cycle returns the slot of MeasureCycle on cluster with topology t at
// (p, b).
func (pl *plan) cycle(cluster string, t, p, b int) int {
	for len(pl.same) <= p {
		pl.same = append(pl.same, nil)
	}
	if pl.same[p] == nil {
		pl.same[p] = sameNeighbours(pl.topologies, p)
	}
	return pl.add(program{kind: progCycle, src: cluster, topology: pl.same[p][t], p: p, b: b})
}

// sameNeighbours maps each topology to the first one that gives every rank
// of p the same neighbour list.
func sameNeighbours(topologies []topo.Topology, p int) []int {
	lists := make([][][]int, len(topologies))
	same := make([]int, len(topologies))
	for t, tp := range topologies {
		lists[t] = make([][]int, p)
		for r := range lists[t] {
			lists[t][r] = tp.Neighbors(r, p)
		}
		same[t] = t
		for u := 0; u < t; u++ {
			if same[u] == u && slices.EqualFunc(lists[u], lists[t], slices.Equal[[]int]) {
				same[t] = u
				break
			}
		}
	}
	return same
}

// pair lists the deliveries and send-CPU times the a-b penalty fit needs.
func (pl *plan) pair(a, b string) pairFit {
	pf := pairFit{a: a, b: b, bytes: pl.grid.Bytes, needsCoerce: pl.net.NeedsCoercion(a, b)}
	for _, n := range pf.bytes {
		s := [5]int{
			pl.add(program{kind: progDelivery, src: a, dst: b, b: n}),
			pl.add(program{kind: progDelivery, src: a, dst: a, b: n}),
			pl.add(program{kind: progDelivery, src: b, dst: b, b: n}),
		}
		if pf.needsCoerce {
			s[3] = pl.add(program{kind: progSendCPU, src: a, dst: b, b: n})
			s[4] = pl.add(program{kind: progSendCPU, src: a, dst: a, b: n})
		}
		pf.slots = append(pf.slots, s)
	}
	return pf
}

// fit fits the router (and, for differing formats, coercion) penalties
// between the pair's clusters from the measured slots. The router penalty
// is isolated as d_ab - d_aa - d_bb over the byte grid: the within-cluster
// deliveries cancel the per-cluster channel terms, leaving the router's
// contribution (the constant absorbs the send-CPU terms; only the slope
// matters for Eq. 1 composition).
func (pf pairFit) fit(ms []float64, res *Result) error {
	a, b := pf.a, pf.b
	var routerObs, coerceObs []cost.Observation
	for i, bytes := range pf.bytes {
		s := pf.slots[i]
		router := ms[s[0]] - ms[s[1]] - ms[s[2]]
		if pf.needsCoerce {
			// Separate the sender-side coercion cost from the wire path.
			coerce := ms[s[3]] - ms[s[4]]
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
	if pf.needsCoerce {
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
