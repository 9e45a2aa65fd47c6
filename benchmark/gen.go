package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"netpart/internal/balance"
	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/experiments"
	"netpart/internal/gauss"
	"netpart/internal/model"
	"netpart/internal/particles"
	"netpart/internal/stencil"
	"netpart/internal/stencil2d"
)

// Seeds. DefaultSeed is what a bare run uses and what numbers quoted in
// docs were measured with; HoldoutSeed is reserved for confirming a
// performance claim on inputs nobody tuned against (README, "Seeds").
const (
	DefaultSeed = 1994
	HoldoutSeed = 2741
)

// scale sizes every workload. full is what BENCHMARK.json and every quoted
// number use; tiny exists so `go test` can run all five workloads in a few
// seconds. Sample counts scale with -seconds, never with these.
type scale struct {
	name          string
	instances     int // decide-sweep decisions per pass
	minDecisions  int // shorter instance lists repeat to this many decisions per pass, for the clock
	genNets       int // generated networks beside the three named ones
	maxStencilN   int // upper end of generated stencil sizes
	offgrid       int // sim-paper off-grid units
	offgridMaxN   int
	paper         bool // sim-paper runs experiments.Table2/Fig3 (false: anchor row only)
	shrinkAnchorN int  // divide anchor sizes by this
	shrinkCycles  int  // divide cycles per live sample by this
}

var (
	fullScale = scale{name: "full", instances: 256, minDecisions: 256, genNets: 5, maxStencilN: 2400, offgrid: 16, offgridMaxN: 1400, paper: true, shrinkAnchorN: 1, shrinkCycles: 1}
	tinyScale = scale{name: "tiny", instances: 24, minDecisions: 1, genNets: 1, maxStencilN: 240, offgrid: 3, offgridMaxN: 80, paper: false, shrinkAnchorN: 8, shrinkCycles: 10}
)

// instance is one partitioning decision's input: annotations and the
// network they are to be placed on (an index into inputs.nets).
type instance struct {
	net  int
	pdus int
	ann  *core.Annotations
	desc string // canonical text, hashed
}

// netSpec is a network to fit in set-up.
type netSpec struct {
	name string
	net  *model.Network
}

// simUnit is one simulated stencil execution.
type simUnit struct {
	n   int
	v   stencil.Variant
	cfg cost.Config
	// vec is nil when the unit takes its vector from core.Decompose.
	vec core.Vector
}

// anchor is the stencil problem a workload decides for, checks in
// simulation and executes live. The live run's size moves with the seed so
// that nothing can be fitted to one N (odd sizes also reach the kernel's
// remainder loop), but by two rows at most: the driver compares runs made
// with different seeds, so they must time the same work to well within a
// bound. The decision and the simulated row stay at n, which keeps the
// exact quality metrics identical across seeds.
type anchor struct {
	transport  string // "local" or "udp"
	v          stencil.Variant
	n          int
	liveN      int  // n plus the seed's jitter
	hetero     bool // Eq. 3 vector for PaperConfig(2,2) with workFactor [1,1,2,2]; false: equal split
	cycles     int  // per live sample, including the 10 the baseline subtracts
	workFactor []int
}

// inputs is everything the program under test receives for one workload.
type inputs struct {
	workload string
	nets     []netSpec
	decide   []instance // the decision stage's instances
	units    []simUnit  // off-grid simulated units (sim-paper: generated; others: the anchor's Table 2 row)
	anchor   anchor
	hash     string
}

const liveRanks = 4

// baseCycles is the short run whose Elapsed is subtracted to remove
// RunLive's start-up (allocation, spawn, assembly) from ms_per_cycle.
const baseCycles = 10

func anchorFor(workload string, rng *rand.Rand, sc scale) anchor {
	var a anchor
	switch workload {
	case "decide-sweep":
		a = anchor{transport: "local", v: stencil.STEN2, n: 96, cycles: 2000}
	case "sim-paper":
		a = anchor{transport: "local", v: stencil.STEN1, n: 600, hetero: true, cycles: 200}
	case "live-kernel":
		a = anchor{transport: "local", v: stencil.STEN2, n: 1024, hetero: true, cycles: 200}
	case "live-exchange-local":
		a = anchor{transport: "local", v: stencil.STEN1, n: 64, cycles: 2000}
	case "live-udp-overlap":
		a = anchor{transport: "udp", v: stencil.STEN2, n: 512, cycles: 300}
	}
	a.n /= sc.shrinkAnchorN
	if a.n < 16 {
		a.n = 16
	}
	a.liveN = a.n + rng.Intn(5) - 2
	a.cycles = a.cycles/sc.shrinkCycles + baseCycles
	if a.hetero {
		a.workFactor = []int{1, 1, 2, 2}
	}
	return a
}

// generate builds the inputs of one workload from the seed. The same seed
// gives the same inputs (hash included); the program under test sees
// nothing else.
func generate(workload string, seed int64, sc scale) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{workload: workload}
	in.nets = append(in.nets, netSpec{"paper", model.PaperTestbed()})
	in.anchor = anchorFor(workload, rng, sc)

	switch workload {
	case "decide-sweep":
		in.nets = append(in.nets,
			netSpec{"figure1", model.Figure1Network()},
			netSpec{"metasystem", model.MetasystemTestbed()})
		for i := 0; i < sc.genNets; i++ {
			in.nets = append(in.nets, netSpec{fmt.Sprintf("gen%d", i), genNetwork(rng, i)})
		}
		for i := 0; i < sc.instances; i++ {
			in.decide = append(in.decide, genInstance(rng, i, len(in.nets), sc))
		}
	case "sim-paper":
		// The decisions experiments.Table2 makes inside, then the off-grid
		// units' own.
		for _, n := range experiments.ProblemSizes {
			for _, v := range []stencil.Variant{stencil.STEN1, stencil.STEN2} {
				in.decide = append(in.decide, stencilInstance(0, n, v))
			}
		}
		for i := 0; i < sc.offgrid; i++ {
			u, err := genOffgrid(rng, i, sc)
			if err != nil {
				return nil, err
			}
			in.units = append(in.units, u)
			in.decide = append(in.decide, stencilInstance(0, u.n, u.v))
		}
	case "live-kernel", "live-exchange-local", "live-udp-overlap":
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if workload != "sim-paper" {
		// The anchor's row of Table 2: every measured configuration at
		// the anchor's N, vectors from Eq. 3.
		for _, c := range experiments.Table2Configs {
			if c.P1+c.P2 > in.anchor.n {
				continue
			}
			in.units = append(in.units, simUnit{n: in.anchor.n, v: in.anchor.v, cfg: experiments.PaperConfig(c.P1, c.P2)})
		}
	}
	if workload != "decide-sweep" {
		in.decide = append(in.decide, stencilInstance(0, in.anchor.n, in.anchor.v))
	}

	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%+v|", workload, in.anchor)
	for _, ns := range in.nets {
		fmt.Fprintf(h, "%s:", ns.name)
		for _, c := range ns.net.Clusters {
			fmt.Fprintf(h, "%+v;", *c)
		}
	}
	for _, d := range in.decide {
		fmt.Fprintf(h, "%s|", d.desc)
	}
	for _, u := range in.units {
		fmt.Fprintf(h, "%d,%d,%v,%v|", u.n, u.v, u.cfg.Counts, u.vec)
	}
	in.hash = fmt.Sprintf("%016x", h.Sum64())
	return in, nil
}

// genClusters is the cluster count of each generated network: the seed
// draws every parameter of a network but not its shape, because a
// decision's cost is O(K·log2 P) and runs with different seeds must time
// the same amount of work.
var genClusters = []int{2, 3, 4, 5, 3}

// genNetwork draws a K-cluster network as a model.Network literal: one
// cluster per equal-bandwidth segment, one router, speeds and per-message
// costs spread over the range the three named testbeds span.
func genNetwork(rng *rand.Rand, id int) *model.Network {
	k := genClusters[id%len(genClusters)]
	net := &model.Network{
		Router: model.Router{Name: "router", PerByteMs: 0.0006},
		Coerce: model.CoercePolicy{PerByteMs: 0.0004},
	}
	for i := 0; i < k; i++ {
		seg := fmt.Sprintf("g%d-seg%d", id, i)
		procs := 3 + rng.Intn(4)
		format := model.FormatBigEndian
		if rng.Intn(10) < 3 {
			format = model.FormatLittleEndian
		}
		flop := 0.0001 + 0.0007*rng.Float64()
		net.Clusters = append(net.Clusters, &model.Cluster{
			Name: fmt.Sprintf("g%d-c%d", id, i), Arch: "generated",
			Procs: procs, Available: procs - rng.Intn(2),
			FloatOpTime: flop, IntOpTime: 0.7 * flop,
			Format: format, Segment: seg,
			MsgOverheadMs: 0.3 + 0.9*rng.Float64(),
			HostPerByteMs: 0.0003 + 0.0013*rng.Float64(),
		})
		net.Segments = append(net.Segments, &model.Segment{Name: seg, BytesPerMs: 1250})
		net.Router.Segments = append(net.Router.Segments, seg)
	}
	return net
}

func stencilInstance(net, n int, v stencil.Variant) instance {
	return instance{net: net, pdus: n, ann: stencil.Annotations(n, v, experiments.Iterations),
		desc: fmt.Sprintf("%s/net%d/N=%d", v, net, n)}
}

// genInstance draws decision i. Which network it is for, which of the five
// annotation families it belongs to and which quarter of the family's size
// range its size comes from all follow from i, so every seed has the same
// mix (every network sees every family at every size class: half the
// paper's stencil, both variants, the rest gauss, particles and the 2-D
// stencil); the seed draws the size within the quarter. How far a search
// goes — how many clusters it opens — depends on the size, so leaving the
// size class to the seed would let seeds differ in work by 10 %.
func genInstance(rng *rand.Rand, i, nets int, sc scale) instance {
	net := i % nets
	family := (i / nets) % 8
	quarter := (i / (8 * nets)) % 4
	// size draws from the quarter-th quarter of [lo, hi].
	size := func(lo, hi int) int {
		width := (hi - lo + 1) / 4
		return lo + quarter*width + rng.Intn(width)
	}
	switch {
	case family < 4:
		return stencilInstance(net, size(48, sc.maxStencilN), stencil.Variant(family%2))
	case family < 6:
		n := size(32, 512)
		return instance{net: net, pdus: n, ann: gauss.Annotations(n), desc: fmt.Sprintf("gauss/net%d/n=%d", net, n)}
	case family < 7:
		cells := size(64, 512)
		parts := cells * (2 + rng.Intn(15))
		return instance{net: net, pdus: cells, ann: particles.Annotations(cells, parts, 20),
			desc: fmt.Sprintf("particles/net%d/cells=%d/parts=%d", net, cells, parts)}
	default:
		n := size(24, 400)
		return instance{net: net, pdus: n * n, ann: stencil2d.Annotations(n, experiments.Iterations),
			desc: fmt.Sprintf("stencil2d/net%d/n=%d", net, n)}
	}
}

// genOffgrid draws simulated unit i away from the paper's four N: a size
// from the i-th of sc.offgrid equal slices of [40, offgridMaxN] (so every
// seed simulates about the same number of grid points), any legal (P1,P2)
// on the paper testbed, alternating variants, and for every other unit a
// random valid vector in place of the Eq. 3 one.
func genOffgrid(rng *rand.Rand, i int, sc scale) (simUnit, error) {
	width := (sc.offgridMaxN - 40) / sc.offgrid
	u := simUnit{n: 40 + i*width + rng.Intn(width), v: stencil.Variant(i % 2)}
	p1 := 1 + rng.Intn(6)
	p2 := 0
	if p1 == 6 {
		p2 = rng.Intn(7)
	}
	u.cfg = experiments.PaperConfig(p1, p2)
	if i/2%2 == 0 {
		return u, nil
	}
	// A random valid vector: the equal split with rows shuffled between
	// neighbouring ranks, every rank keeping at least one row.
	vec, err := balance.EqualVector(u.n, p1+p2)
	if err != nil {
		return u, err
	}
	for i := 0; i+1 < len(vec); i++ {
		if vec[i] > 1 {
			d := rng.Intn(vec[i])
			vec[i] -= d
			vec[i+1] += d
		}
	}
	u.vec = vec
	return u, nil
}
