// Package commbench implements the paper's offline benchmarking step
// (Section 3.0): topology-specific communication programs are executed on
// the (simulated) network for a grid of message sizes and processor counts,
// and Eq. 1 cost functions are fitted to the measurements by least squares.
// A STEN-1 stagger program, the 1-D exchange with compute between cycles,
// is measured on every cluster at every p and on the two-cluster chains a
// partitioning search can reach, each a line through its own two
// measurements.
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

// StaggerComputeMs is g, the compute of one cycle of the stagger program:
// long enough that every rank's borders have crossed the channel before
// any rank's compute ends, so the cycle is compute-bound at every p.
const StaggerComputeMs = 1000.0

// StaggerCycles is how many cycles the stagger program runs, whatever the
// grid's Cycles: the stagger includes the first cycles' fill, so the table
// prices runs of this length, the experiments' 10 iterations, and a
// measurement flag must not move it.
const StaggerCycles = 10

// The programs. A cycle (the topology-specific communication program): p
// tasks on one cluster perform `cycles` synchronous communication cycles
// (an asynchronous send to each neighbour, then a blocking receive from
// each) with b-byte messages, and the result is the elapsed time per
// cycle. A stagger, a STEN-1 cycle (runner.stagger): p tasks on one
// cluster, or p_a on one cluster followed by p_b on another, in a 1-D
// chain, each of which, for StaggerCycles cycles, sends a b-byte border to
// each neighbour, receives each neighbour's, and computes for
// StaggerComputeMs; the result is what a cycle costs beyond its compute.
// A delivery and a send CPU (one message): a task on cluster src sends one
// b-byte message to a task on cluster dst, and the result is the message's
// one-way delivery time, or the time the send occupies the sender (which
// includes the per-byte coercion cost when the formats differ).

// neighbours lists tp's neighbours of every rank of p.
func neighbours(tp topo.Topology, p int) [][]int {
	lists := make([][]int, p)
	for r := range lists {
		lists[r] = tp.Neighbors(r, p)
	}
	return lists
}

// runner runs benchmark programs one after another on one simulator, which
// Reset readies for each, and on one block of ranks whose step functions
// and task names are made once: after its first programs a runner
// allocates next to nothing per program, and it validates the network
// once, in New.
type runner struct {
	sim   *simnet.Sim
	ranks []rank
	steps []func(*simnet.Proc) // steps[i] is ranks[i].step
	names []string
	procs []*simnet.Proc
}

// newRunner returns a runner for programs of two to p ranks on net.
func newRunner(net *model.Network, p int) (*runner, error) {
	if p < 2 {
		return nil, fmt.Errorf("commbench: need at least 2 tasks, got %d", p)
	}
	sim, err := simnet.New(net)
	if err != nil {
		return nil, err
	}
	r := &runner{sim: sim, ranks: make([]rank, p), steps: make([]func(*simnet.Proc), p), names: make([]string, p), procs: make([]*simnet.Proc, p)}
	for i := range r.ranks {
		r.steps[i], r.names[i] = r.ranks[i].step, fmt.Sprintf("bench-%d", i)
	}
	return r, nil
}

// run spawns the first p ranks, which the caller has set, ranks below
// split on cluster a and the others on c, on the simulator reset with
// opts, and runs them.
func (r *runner) run(p, split int, a, c string, opts []simnet.Option) error {
	r.sim.Reset(opts...)
	for i := range p {
		cluster := c
		if i < split {
			cluster = a
		}
		r.procs[i] = r.sim.SpawnStep(r.names[i], cluster, r.steps[i])
	}
	return r.sim.Run()
}

// exchange runs the ranks of lists, ranks below split on cluster a and the
// others on c, each for cycles rounds of a b-byte send to each of its
// neighbours, a receive from each, and computeMs of compute. It returns the
// elapsed virtual time.
func (r *runner) exchange(split int, a, c string, lists [][]int, b, cycles int, computeMs float64, opts []simnet.Option) (float64, error) {
	for i, ns := range lists {
		r.ranks[i] = rank{procs: r.procs, to: ns, from: ns, b: b, rounds: cycles, computeMs: computeMs}
	}
	if err := r.run(len(lists), split, a, c, opts); err != nil {
		return 0, err
	}
	return r.sim.Now(), nil
}

// stagger runs the stagger program of the 1-D chain of lists, its ranks
// below split on cluster a and the others on c, for StaggerCycles cycles
// and returns the stagger: the elapsed time per cycle less
// StaggerComputeMs.
func (r *runner) stagger(split int, a, c string, lists [][]int, b int, opts []simnet.Option) (float64, error) {
	end, err := r.exchange(split, a, c, lists, b, StaggerCycles, StaggerComputeMs, opts)
	return end/StaggerCycles - StaggerComputeMs, err
}

// oneMessage runs the one-message program: rank 0, on cluster src, sends
// one b-byte message to rank 1, on cluster dst. Rank 1's delivered is the
// delivery time and rank 0's end the send CPU (the sender starts at 0).
func (r *runner) oneMessage(src, dst string, b int) error {
	r.ranks[0] = rank{procs: r.procs, to: toOne, b: b, rounds: 1}
	r.ranks[1] = rank{procs: r.procs, from: fromZero, rounds: 1}
	return r.run(2, 1, src, dst, nil)
}

// toOne and fromZero are oneMessage's neighbour lists (read only).
var toOne, fromZero = []int{1}, []int{0}

// rank is one task of a benchmark program, run as a simnet step task: for
// each of rounds, a b-byte send to each of to, a receive from each of from
// (indices into procs) and, with computeMs set, that much compute, and
// then finish. It is the loop
//
//	for range rounds {
//		for _, i := range to { pr.Send(procs[i], b, nil) }
//		for _, i := range from { delivered = pr.Recv(procs[i]).DeliveredAt }
//		if computeMs > 0 { pr.Advance(computeMs) }
//	}
//
// taken one operation per wake.
type rank struct {
	procs     []*simnet.Proc
	to, from  []int
	b, rounds int
	computeMs float64
	// round and op are where the loop stands: op < len(to) is the next
	// send, after those the next receive is from[op-len(to)], and after
	// those comes the compute.
	round, op int
	// end is the virtual time of finishing, delivered that of the last
	// message received reaching the mailbox.
	end, delivered float64
}

func (r *rank) step(pr *simnet.Proc) {
	n, m := len(r.to), len(r.to)+len(r.from)
	switch {
	case r.round == r.rounds || m == 0:
		r.end = pr.Now()
		pr.Finish()
		return
	case r.op < n:
		pr.StartSend(r.procs[r.to[r.op]], r.b, nil)
	case r.op < m:
		msg, ok := pr.TryRecv(r.procs[r.from[r.op-n]])
		if !ok {
			return
		}
		r.delivered = msg.DeliveredAt
	default:
		pr.Compute(r.computeMs)
	}
	if r.computeMs > 0 {
		m++
	}
	if r.op++; r.op == m {
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

// ChainFit records one entry of the chain table: the measured stagger of
// the 1-D chain of PA ranks on cluster A followed by PB on cluster B (B
// empty and PB 0 for PA ranks of A alone), the line through its Samples
// measurements. A pair at one rank each is A before B in the network's
// cluster order, and the table holds its line for either order.
type ChainFit struct {
	A       string
	PA      int
	B       string
	PB      int
	Stagger cost.PerByte
	Samples int
}

// Result is the full output of a benchmarking run: a ready-to-use cost
// table plus the per-model fit diagnostics.
type Result struct {
	Table  *cost.Table
	Fits   []ClusterFit
	Chains []ChainFit
	Router map[[2]string]cost.PerByte
	Coerce map[[2]string]cost.PerByte
}

// Run benchmarks every cluster of the network over the given topologies and
// grid, fits Eq. 1 per (cluster, topology), fits per-byte router and
// coercion penalties per cross-segment cluster pair, and assembles the cost
// table the partitioner consumes. With 1-D among the topologies it also
// measures the stagger program, at the grid's smallest and largest message
// sizes, on the chain table's chains: every cluster alone at p = 2 …
// Procs, every cross-segment pair at one rank each, and each walk pair
// (walkPairs), the faster cluster's Available ranks followed by 1 … Procs
// of the other. Each entry is the line through its two measurements.
//
// It first lists every measurement the fits need, then runs each distinct
// program once on a pool of GOMAXPROCS workers (each with its own
// simulator, reset between programs, and each result in its own slot), and
// then fits in serial order. The simulator runs in virtual time, so the
// result is bit-identical at any worker count.
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
	lists      map[[2]int][][]int // (topology, p) → every rank's neighbours, for the cycles
	chains     [][][]int          // chains[p]: every rank's 1-D neighbours, for the staggers
	same       [][]int            // same[p][t]: the first topology with t's neighbour lists at p
	sizes      []int              // the grid's smallest and largest sizes, the staggers'
	maxP       int
	progs      []program
	index      map[program]int
	fits       []cycleFit
	pairs      []pairFit
	chainFits  []chainFit
}

// newPlan lists every measurement Run's fits need, in Run's serial order.
func newPlan(net *model.Network, topologies []topo.Topology, grid Grid) (*plan, error) {
	if len(grid.Bytes) < 2 {
		return nil, fmt.Errorf("commbench: need ≥ 2 message sizes, got %d", len(grid.Bytes))
	}
	if grid.Cycles <= 0 {
		grid.Cycles = 1
	}
	pl := &plan{net: net, topologies: topologies, grid: grid, lists: make(map[[2]int][][]int), index: make(map[program]int), maxP: 2,
		sizes: []int{slices.Min(grid.Bytes), slices.Max(grid.Bytes)}}
	oneD := slices.ContainsFunc(topologies, func(tp topo.Topology) bool { _, ok := tp.(topo.OneD); return ok })
	for _, c := range net.Clusters {
		if c.Procs < 3 {
			return nil, fmt.Errorf("commbench: cluster %q has only %d processors; need ≥ 3 to vary p", c.Name, c.Procs)
		}
		pl.maxP = max(pl.maxP, c.Procs)
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
		if oneD {
			for p := 2; p <= c.Procs; p++ {
				pl.chain(c, p, nil, 0)
			}
		}
	}
	for i, ci := range net.Clusters {
		for _, cj := range net.Clusters[i+1:] {
			if net.SameSegment(ci.Name, cj.Name) {
				continue
			}
			pl.pairs = append(pl.pairs, pl.pair(ci.Name, cj.Name))
			if oneD {
				pl.chain(ci, 1, cj, 1)
			}
		}
	}
	if oneD {
		for _, w := range walkPairs(net) {
			for q := 1; q <= w[1].Procs; q++ {
				pl.chain(w[0], w[0].Available, w[1], q)
			}
		}
		pl.chains = make([][][]int, pl.maxP+1)
		for p := 2; p <= pl.maxP; p++ {
			pl.chains[p] = neighbours(topo.OneD{}, p)
		}
	}
	return pl, nil
}

// run measures every listed program on a GOMAXPROCS-wide pool and returns
// the results by slot. A program takes an idle runner, or makes one when
// every runner is busy, so there are at most as many runners as workers.
func (pl *plan) run() ([]float64, error) {
	n := len(pl.progs)
	ms := make([]float64, n)
	workers := runtime.GOMAXPROCS(0)
	idle := make(chan *runner, workers)
	err := parallel.For(workers, n, func(i int) error {
		var r *runner
		select {
		case r = <-idle:
		default:
			var err error
			if r, err = newRunner(pl.net, pl.maxP); err != nil {
				return err
			}
		}
		var err error
		ms[i], err = pl.measure(r, pl.progs[i])
		idle <- r
		// A program of step tasks never blocks, so a worker would run one
		// after another while a GC cycle's mark worker waits for a
		// processor, its write barriers on all the while; yield between
		// programs.
		runtime.Gosched()
		return err
	})
	if err != nil {
		return nil, err
	}
	return ms, nil
}

// measure runs one program on r and returns its result.
func (pl *plan) measure(r *runner, pr program) (float64, error) {
	grid := pl.grid
	var opts []simnet.Option
	if grid.Jitter > 0 && (pr.kind == progCycle || pr.kind == progStagger) {
		opts = append(opts, simnet.WithJitter(grid.Jitter, grid.Seed+uint64(pr.p)*131+uint64(pr.b)))
	}
	switch pr.kind {
	case progCycle:
		end, err := r.exchange(pr.p, pr.src, pr.src, pl.lists[[2]int{pr.topology, pr.p}], pr.b, grid.Cycles, 0, opts)
		if err != nil {
			return 0, fmt.Errorf("commbench: %s/%s p=%d b=%d: %w", pr.src, pl.topologies[pr.topology].Name(), pr.p, pr.b, err)
		}
		return end / float64(grid.Cycles), nil
	case progStagger:
		x, err := r.stagger(pr.split, pr.src, pr.dst, pl.chains[pr.p], pr.b, opts)
		if err != nil {
			return 0, fmt.Errorf("commbench: stagger %s+%s p=%d (%d on %s) b=%d: %w", pr.src, pr.dst, pr.p, pr.split, pr.src, pr.b, err)
		}
		return x, nil
	}
	if err := r.oneMessage(pr.src, pr.dst, pr.b); err != nil {
		return 0, err
	}
	if pr.kind == progSendCPU {
		return r.ranks[0].end, nil
	}
	return r.ranks[1].delivered, nil
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
	for _, f := range pl.chainFits {
		if err := f.fit(ms, res); err != nil {
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

// chainFit is one chain table entry's fit: pa ranks of cluster a followed
// by pb of cluster b (b empty, pb 0 for a alone), observed at the grid's
// smallest and largest message sizes, and the slot of the program that
// measures each.
type chainFit struct {
	a, b   string
	pa, pb int
	obs    []cost.Observation
	slots  []int
}

// chain lists the chain of pa ranks on a followed by pb on b (nil, 0 for
// a alone), once.
func (pl *plan) chain(a *model.Cluster, pa int, b *model.Cluster, pb int) {
	f := chainFit{a: a.Name, pa: pa, pb: pb}
	dst := a.Name // a program's ranks from split on are on dst: none for a alone
	if b != nil {
		f.b, dst = b.Name, b.Name
	}
	for _, g := range pl.chainFits {
		if g.a == f.a && g.pa == pa && g.b == f.b && g.pb == pb {
			return
		}
	}
	for _, n := range pl.sizes {
		f.obs = append(f.obs, cost.Observation{B: float64(n), P: pa + pb})
		f.slots = append(f.slots, pl.add(program{kind: progStagger, src: a.Name, dst: dst, p: pa + pb, split: pa, b: n}))
	}
	pl.chainFits = append(pl.chainFits, f)
	pl.maxP = max(pl.maxP, pa+pb)
}

// fit fits the entry's line from the measured slots.
func (f chainFit) fit(ms []float64, res *Result) error {
	for i, slot := range f.slots {
		f.obs[i].Ms = ms[slot]
	}
	line, err := cost.FitPerByte(f.obs)
	if err != nil {
		return fmt.Errorf("commbench: fitting chain %s:%d+%s:%d: %w", f.a, f.pa, f.b, f.pb, err)
	}
	res.Table.SetChain(f.a, f.pa, f.b, f.pb, line)
	if f.pa == 1 && f.pb == 1 {
		// A rank each: the mirror image is the same program, bit for bit.
		res.Table.SetChain(f.b, 1, f.a, 1, line)
	}
	res.Chains = append(res.Chains, ChainFit{A: f.a, PA: f.pa, B: f.b, PB: f.pb, Stagger: line, Samples: len(f.obs)})
	return nil
}

// walkPairs lists the network's walk pairs: for each op class, the first
// two clusters with processors available in fastest-first order, faster
// first, once each. Core's locality-first search opens clusters in that
// order and places their ranks in it, so the only two-cluster
// configurations it evaluates are its walk pair's: the faster cluster's
// Available ranks followed by 1 … Available of the other. newPlan measures
// 1 … Procs of the other.
func walkPairs(net *model.Network) [][2]*model.Cluster {
	var pairs [][2]*model.Cluster
	for _, class := range []model.OpClass{model.OpFloat, model.OpInt} {
		var w [2]*model.Cluster
		n := 0
		for _, c := range net.BySpeed(nil, class) {
			if c.Available > 0 && n < 2 {
				w[n], n = c, n+1
			}
		}
		if n == 2 && !slices.Contains(pairs, w) {
			pairs = append(pairs, w)
		}
	}
	return pairs
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
	progCycle    progKind = iota // a cycle
	progDelivery                 // a delivery
	progSendCPU                  // a send CPU
	progStagger                  // a stagger
)

// program is one simulator run. Two measurements are the same program when
// they run the same tasks on the same cluster with the same messages: a
// cycle's topology is the first of Run's topologies that gives every rank
// the same neighbour list at p (broadcast at p = 2 is 1-D; so is 2-D at a
// prime p), and its jitter seed, as a stagger program's, depends only on
// (p, b).
type program struct {
	kind     progKind
	src, dst string // dst is empty for a cycle; a stagger's ranks from split on are on dst
	topology int    // index into the plan's topologies; cycles only
	p, b     int
	split    int // a stagger's ranks on src
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

// cycle returns the slot of the cycle program on cluster with topology t at
// (p, b).
func (pl *plan) cycle(cluster string, t, p, b int) int {
	for len(pl.same) <= p {
		pl.same = append(pl.same, nil)
	}
	if pl.same[p] == nil {
		pl.same[p] = pl.sameNeighbours(p)
	}
	return pl.add(program{kind: progCycle, src: cluster, topology: pl.same[p][t], p: p, b: b})
}

// sameNeighbours maps each topology to the first one that gives every rank
// of p the same neighbour list, and keeps those first ones' lists.
func (pl *plan) sameNeighbours(p int) []int {
	lists := make([][][]int, len(pl.topologies))
	same := make([]int, len(pl.topologies))
	for t, tp := range pl.topologies {
		lists[t] = neighbours(tp, p)
		same[t] = t
		for u := 0; u < t; u++ {
			if same[u] == u && slices.EqualFunc(lists[u], lists[t], slices.Equal[[]int]) {
				same[t] = u
				break
			}
		}
		if same[t] == t {
			pl.lists[[2]int{t, p}] = lists[t]
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
