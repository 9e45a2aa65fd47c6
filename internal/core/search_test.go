package core

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"netpart/internal/commbench"
	"netpart/internal/cost"
	"netpart/internal/model"
	"netpart/internal/topo"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/searches.golden from the current searches")

// searchStrategies are the four Partition* searches, in golden order.
var searchStrategies = []struct {
	name string
	run  func(*Estimator) (Result, error)
}{
	{"bisect", Partition},
	{"scan", PartitionLinear},
	{"exhaustive", PartitionExhaustive},
	{"global", PartitionGlobal},
}

// searchCase builds a fresh estimator for one pinned search input.
type searchCase struct {
	name string
	mk   func(t *testing.T) *Estimator
	// exact names the strategies whose T_c must equal the exhaustive
	// oracle's; any other may be worse, never better.
	exact []string
}

// table1Cases is the Table 1 grid: STEN-1/2 × N ∈ {60, 300, 600, 1200}
// under the paper's and the fitted cost tables, with and without the
// router station. The pairwise global search finds the oracle's optimum
// on every one; on Table 2's setting (fitted, router station) so do the
// locality-first searches, elsewhere a configuration such as 5+4 that
// leaves a faster processor idle can beat them.
func table1Cases(t *testing.T) []searchCase {
	t.Helper()
	fit, err := commbench.Run(model.PaperTestbed(), []topo.Topology{topo.OneD{}, topo.Broadcast{}}, commbench.DefaultGrid())
	if err != nil {
		t.Fatal(err)
	}
	var out []searchCase
	for _, tbl := range []struct {
		name string
		t    *cost.Table
	}{{"paper", cost.PaperTable()}, {"fitted", fit.Table}} {
		for _, rs := range []bool{true, false} {
			for _, overlap := range []bool{false, true} {
				for _, n := range []int{60, 300, 600, 1200} {
					tbl, rs, overlap, n := tbl, rs, overlap, n
					exact := []string{"global"}
					if tbl.name == "fitted" && rs {
						exact = append(exact, "bisect", "scan")
					}
					out = append(out, searchCase{
						exact: exact,
						name:  fmt.Sprintf("%s/rs=%t/%s/N=%d", tbl.name, rs, stencilAnnotations(n, overlap).Name, n),
						mk: func(t *testing.T) *Estimator {
							e, err := NewEstimator(model.PaperTestbed(), tbl.t, stencilAnnotations(n, overlap))
							if err != nil {
								t.Fatal(err)
							}
							e.RouterStation = rs
							return e
						},
					})
				}
			}
		}
	}
	return out
}

// randomEstimator draws a network of one to four clusters with random
// speeds, formats and cost functions, and annotations with a random
// topology, message size, overlap, startup and (on small networks) a
// non-linear computation.
func randomEstimator(t *testing.T, seed int64) *Estimator {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	k := 1 + rng.Intn(4)
	net := &model.Network{
		Router: model.Router{Name: "r", PerByteMs: 0.0006},
		Coerce: model.CoercePolicy{PerByteMs: 0.0004},
	}
	tbl := cost.NewTable()
	topologies := topo.Names()
	for i := 0; i < k; i++ {
		name, seg := fmt.Sprintf("c%d", i), fmt.Sprintf("s%d", i)
		avail := 1 + rng.Intn(6)
		flop := 0.0001 + 0.0007*rng.Float64()
		format := model.FormatBigEndian
		if rng.Intn(3) == 0 {
			format = model.FormatLittleEndian
		}
		net.Clusters = append(net.Clusters, &model.Cluster{
			Name: name, Procs: avail + rng.Intn(2), Available: avail,
			FloatOpTime: flop, IntOpTime: 0.7 * flop, Format: format, Segment: seg,
			MsgOverheadMs: 0.3 + 0.9*rng.Float64(), HostPerByteMs: 0.0003 + 0.0013*rng.Float64(),
		})
		net.Segments = append(net.Segments, &model.Segment{Name: seg, BytesPerMs: 1250})
		net.Router.Segments = append(net.Router.Segments, seg)
		for _, tp := range topologies {
			tbl.SetComm(name, tp, cost.Params{
				C1: 0.2 * rng.Float64(), C2: 0.8 + rng.Float64(),
				C3: -0.01 * rng.Float64(), C4: 0.002 + 0.003*rng.Float64(),
			})
		}
		for j := 0; j < i; j++ {
			other := fmt.Sprintf("c%d", j)
			tbl.SetRouter(name, other, cost.PerByte{FixedMs: 0.5 * rng.Float64(), Ms: 0.0003 + 0.0006*rng.Float64()})
			tbl.SetCoerce(name, other, cost.PerByte{Ms: 0.0004 * rng.Float64()})
		}
	}
	n := 1 + rng.Intn(700)
	ann := stencilAnnotations(n, rng.Intn(2) == 0)
	ann.Comm[0].Topology = topologies[rng.Intn(len(topologies))]
	if rng.Intn(2) == 0 {
		ann.Comm[0].BytesPerMessage = func(pdus float64) float64 { return 8*pdus + 64 }
	}
	if rng.Intn(2) == 0 {
		ann.StartupBytesPerPDU = 4 * float64(n)
	}
	if rng.Intn(2) == 0 {
		ann.Compute[0].Class = model.OpInt
	}
	if k <= 2 && rng.Intn(3) == 0 {
		ann.Compute[0].TotalOps = func(x float64) float64 { return 5 * x * math.Sqrt(x) }
	}
	e, err := NewEstimator(net, tbl, ann)
	if err != nil {
		t.Fatal(err)
	}
	e.RouterStation = rng.Intn(4) != 0
	return e
}

// constructedCases are two T_c curves built to mislead a bisection that
// assumes unimodality (TestConstructedCurves pins their shapes): every
// strategy must find the oracle's optimum on both.
//   - p2-minimum: one cluster whose Eq. 1 is a constant C1 = T_comp(1)/2.5
//     and whose measured stagger is C1 at p = 2 and 2·C1 from p = 3 on,
//     so a staggered STEN-1 cycle is T_comp(1)/p + d·C1: the minimum is
//     at p = 2 (one exchange), and from p = 3 on (two) the curve falls
//     again to a higher minimum at p = 6.
//   - stay-closed: the paper testbed with a 60 ms router charge, so every
//     count of the slower cluster is worse than leaving it closed, while
//     the curve over those counts falls all the way to p = 6.
func constructedCases() []searchCase {
	all := []string{"bisect", "scan", "global"}
	return []searchCase{
		{name: "constructed/p2-minimum", exact: all, mk: func(t *testing.T) *Estimator {
			net := model.PaperTestbed()
			net.Cluster(model.IPCCluster).Available = 0
			tbl := cost.NewTable()
			tbl.SetComm(model.Sparc2Cluster, "1-D", cost.Params{C1: 5.4 / 2.5}) // T_comp(1) = 5.4 ms at N = 60
			for p := 2; p <= 6; p++ {
				tbl.SetChain(model.Sparc2Cluster, p, "", 0, cost.PerByte{FixedMs: float64(min(p-1, 2)) * (5.4 / 2.5)})
			}
			e, err := NewEstimator(net, tbl, stencilAnnotations(60, false))
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{name: "constructed/stay-closed", exact: all, mk: func(t *testing.T) *Estimator {
			tbl := cost.PaperTable()
			tbl.SetRouter(model.Sparc2Cluster, model.IPCCluster, cost.PerByte{FixedMs: 60, Ms: 0.0006})
			e, err := NewEstimator(model.PaperTestbed(), tbl, stencilAnnotations(1200, false))
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
	}
}

// TestConstructedCurves pins the shapes constructedCases claim, so that
// each stays a curve a plain bisection gets wrong.
func TestConstructedCurves(t *testing.T) {
	cs := constructedCases()
	curve := func(sc searchCase, counts ...[2]int) []float64 {
		e := sc.mk(t)
		var out []float64
		for _, c := range counts {
			est, err := e.Estimate(cost.Config{Clusters: []string{model.Sparc2Cluster, model.IPCCluster}, Counts: c[:]})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, est.TcMs)
		}
		return out
	}
	// T(1..6) on one cluster: a minimum at 2, a rise at 3, then a fall
	// to a second, higher minimum at 6, where a bisection lands.
	tc := curve(cs[0], [2]int{1, 0}, [2]int{2, 0}, [2]int{3, 0}, [2]int{4, 0}, [2]int{5, 0}, [2]int{6, 0})
	if !(tc[1] < tc[0] && tc[1] < tc[2] && tc[2] > tc[3] && tc[3] > tc[4] && tc[4] > tc[5] && tc[1] < tc[5]) {
		t.Errorf("p2-minimum: T_c(1..6) = %v, want a minimum at 2 and a higher one at 6", tc)
	}
	// T(6+0..6+6): every open count worse than 6+0, falling to 6+6.
	tc = curve(cs[1], [2]int{6, 0}, [2]int{6, 1}, [2]int{6, 2}, [2]int{6, 3}, [2]int{6, 4}, [2]int{6, 5}, [2]int{6, 6})
	for p := 1; p <= 6; p++ {
		if tc[p] <= tc[0] || p > 1 && tc[p] >= tc[p-1] {
			t.Errorf("stay-closed: T_c(6+0..6+6) = %v, want every open count above 6+0 and falling", tc)
			break
		}
	}
}

// searchGoldenCases is every pinned input: the Table 1 grid, the two
// constructed curves and a seeded set of random networks.
func searchGoldenCases(t *testing.T) []searchCase {
	out := append(table1Cases(t), constructedCases()...)
	for seed := int64(1); seed <= 24; seed++ {
		seed := seed
		out = append(out, searchCase{
			name: fmt.Sprintf("random/seed=%d", seed),
			mk:   func(t *testing.T) *Estimator { return randomEstimator(t, seed) },
		})
	}
	return out
}

// traceHash digests a recorded decision stream: every candidate's labels,
// configuration, shares and cost bits, and every event's fields.
func traceHash(tr *SearchTrace) uint64 {
	h := fnv.New64a()
	bits := func(vs ...float64) {
		for _, v := range vs {
			fmt.Fprintf(h, "%x,", math.Float64bits(v))
		}
	}
	for _, c := range tr.Candidates {
		fmt.Fprintf(h, "c|%s|%d|%v|%t|%d|", c.Cluster, c.P, c.Config, c.Cached, c.Evaluation)
		bits(c.Shares...)
		bits(c.TcompMs, c.TcommMs, c.ToverlapMs, c.TcMs, c.StartupMs)
	}
	for _, ev := range tr.Events {
		fmt.Fprintf(h, "e|%s|%s|%s|%d|%d|%d|%v|%d|", ev.Kind, ev.Strategy, ev.Cluster, ev.P, ev.Lo, ev.Hi, ev.Config, ev.Evaluations)
		bits(ev.TcMs)
	}
	return h.Sum64()
}

// resultLine renders a search answer with its floats as raw bits.
func resultLine(res Result, err error) string {
	if err != nil {
		return "err=" + err.Error()
	}
	return fmt.Sprintf("cfg=[%v] vec=%v tc=%x tcomp=%x tcomm=%x startup=%x evals=%d",
		res.Config, res.Vector, math.Float64bits(res.TcMs), math.Float64bits(res.TcompMs),
		math.Float64bits(res.TcommMs), math.Float64bits(res.StartupMs), res.Evaluations)
}

// TestSearchesBitIdentical pins every search's answer and decision stream
// to the bit: for each input and strategy the unobserved answer (Config,
// Vector, T_c components, Evaluations) and a hash of the observed
// SearchTrace must match testdata/searches.golden, and attaching the
// observer must not change the answer. Regenerate with -update only for a
// change that is meant to move answers.
//
// It also holds every strategy against the exhaustive oracle: none beats
// it, the strategies a case names in exact match it, the global search
// never does worse than the bisection it starts from, and on the 1-D
// topology the bisection matches the scan with no more evaluations.
func TestSearchesBitIdentical(t *testing.T) {
	var got []string
	for _, sc := range searchGoldenCases(t) {
		res := map[string]Result{}
		for _, st := range searchStrategies {
			r, err := st.run(sc.mk(t))
			plain := resultLine(r, err)
			e := sc.mk(t)
			trace := &SearchTrace{}
			e.Observer = trace
			if observed := resultLine(st.run(e)); observed != plain {
				t.Errorf("%s %s: observed answer %s, unobserved %s", sc.name, st.name, observed, plain)
			}
			got = append(got, fmt.Sprintf("%s %s %s trace=%016x", sc.name, st.name, plain, traceHash(trace)))
			if err == nil {
				res[st.name] = r
			}
		}
		if len(res) != len(searchStrategies) {
			continue // the golden lines pin the errors
		}
		oracle := res["exhaustive"].TcMs
		for name, r := range res {
			if r.TcMs < oracle {
				t.Errorf("%s %s: T_c %v below the oracle's %v", sc.name, name, r.TcMs, oracle)
			}
		}
		for _, name := range sc.exact {
			if r := res[name]; r.TcMs != oracle {
				t.Errorf("%s %s: %v T_c %v, oracle %v T_c %v", sc.name, name, r.Config, r.TcMs, res["exhaustive"].Config, oracle)
			}
		}
		bisect, scan := res["bisect"], res["scan"]
		if res["global"].TcMs > bisect.TcMs {
			t.Errorf("%s: global T_c %v above bisect's %v", sc.name, res["global"].TcMs, bisect.TcMs)
		}
		if sc.mk(t).Ann.Comm[0].Topology == "1-D" && (bisect.TcMs != scan.TcMs || bisect.Evaluations > scan.Evaluations) {
			t.Errorf("%s: bisect %v T_c %v in %d evaluations, scan %v T_c %v in %d", sc.name,
				bisect.Config, bisect.TcMs, bisect.Evaluations, scan.Config, scan.TcMs, scan.Evaluations)
		}
	}
	path := filepath.Join("testdata", "searches.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden has %d lines, searches produced %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}
}

// TestEvaluationsCountComputedCandidates pins a search's evaluation count
// to its decision record: for every strategy on every golden input,
// Result.Evaluations and the last winner event's count are the number of
// candidates the observer records as computed, memo hits left out. The
// global search's count includes its bisect start's probes.
func TestEvaluationsCountComputedCandidates(t *testing.T) {
	for _, sc := range searchGoldenCases(t) {
		for _, st := range searchStrategies {
			e := sc.mk(t)
			trace := &SearchTrace{}
			e.Observer = trace
			res, err := st.run(e)
			if err != nil {
				continue // the golden lines pin the errors
			}
			computed := 0
			for _, c := range trace.Candidates {
				if !c.Cached {
					computed++
				}
			}
			winner := -1
			for _, ev := range trace.Events {
				if ev.Kind == EvWinner {
					winner = ev.Evaluations
				}
			}
			if res.Evaluations != computed || winner != computed {
				t.Errorf("%s %s: %d evaluations, winner event %d, %d candidates computed",
					sc.name, st.name, res.Evaluations, winner, computed)
			}
		}
	}
}

// TestPartitionGlobalKeysFullCounts pins the global search's memo key on
// a lattice with counts of 256 and more: two clusters of 300 and N = 600,
// where the pairwise sweep visits every configuration. Each one must be
// estimated exactly once under its own counts, so the evaluation count
// beyond its bisect start's equals the number of distinct configurations
// in the candidate stream, which is the whole lattice.
func TestPartitionGlobalKeysFullCounts(t *testing.T) {
	const avail = 300
	net := model.PaperTestbed()
	for _, c := range net.Clusters {
		c.Procs, c.Available = avail, avail
	}
	e, err := NewEstimator(net, cost.PaperTable(), stencilAnnotations(2*avail, false))
	if err != nil {
		t.Fatal(err)
	}
	start, err := Partition(e)
	if err != nil {
		t.Fatal(err)
	}
	trace := &SearchTrace{}
	e.Observer = trace
	res, err := PartitionGlobal(e)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[[2]int]bool{}
	large := false
	for _, c := range trace.Candidates {
		distinct[[2]int{c.Config.Counts[0], c.Config.Counts[1]}] = true
		large = large || c.Config.Counts[0] >= 256 || c.Config.Counts[1] >= 256
	}
	if !large {
		t.Error("no configuration with a count ≥ 256 was estimated")
	}
	if lattice, n := (avail+1)*(avail+1)-1, res.Evaluations-start.Evaluations; n != len(distinct) || len(distinct) != lattice {
		t.Errorf("%d evaluations after the start's %d over %d distinct configurations, want both %d",
			n, start.Evaluations, len(distinct), lattice)
	}
}

// TestSearchesSkipUnavailableCluster pins that a fastest cluster with no
// available processors does not end the search: every strategy places the
// whole problem on the remaining cluster.
func TestSearchesSkipUnavailableCluster(t *testing.T) {
	const n = 600
	for _, st := range searchStrategies {
		net := model.PaperTestbed()
		net.Cluster(model.Sparc2Cluster).Available = 0
		e, err := NewEstimator(net, cost.PaperTable(), stencilAnnotations(n, false))
		if err != nil {
			t.Fatal(err)
		}
		res, err := st.run(e)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		for i, name := range res.Config.Clusters {
			if name == model.Sparc2Cluster && res.Config.Counts[i] != 0 {
				t.Errorf("%s: chose %v with no sparc2 available", st.name, res.Config)
			}
		}
		if res.Config.Total() == 0 || len(res.Vector) != res.Config.Total() || res.Vector.Sum() != n {
			t.Errorf("%s: config %v vector %v, want ipc only summing to %d", st.name, res.Config, res.Vector, n)
		}
	}
}

// TestSearchPropertiesOnRandomModels checks, over random networks and
// annotations (some with an unavailable fastest cluster), that every
// strategy returns a vector summing to N within each cluster's
// availability, a finite positive T_c that a fresh Estimate of the chosen
// configuration reproduces bit for bit, and that exhaustive ≤ global ≤
// bisect in T_c.
func TestSearchPropertiesOnRandomModels(t *testing.T) {
	check := func(seed int64) bool {
		tc := map[string]float64{}
		for _, st := range searchStrategies {
			e := randomEstimator(t, seed)
			if seed%3 == 0 && len(e.Net.Clusters) > 1 {
				e.Net.BySpeed(nil, e.Ann.DominantCompute().Class)[0].Available = 0
			}
			res, err := st.run(e)
			if err != nil {
				t.Logf("seed %d %s: %v", seed, st.name, err)
				return false
			}
			procs := 0
			for i, name := range res.Config.Clusters {
				if c := e.Net.Cluster(name); res.Config.Counts[i] > c.Available {
					t.Logf("seed %d %s: %v exceeds %s's %d available", seed, st.name, res.Config, name, c.Available)
					return false
				}
				procs += res.Config.Counts[i]
			}
			if res.Vector.Sum() != e.Ann.NumPDUs() || len(res.Vector) != procs {
				t.Logf("seed %d %s: vector %v for %v, N=%d", seed, st.name, res.Vector, res.Config, e.Ann.NumPDUs())
				return false
			}
			if math.IsInf(res.TcMs, 0) || math.IsNaN(res.TcMs) || res.TcMs <= 0 {
				t.Logf("seed %d %s: T_c %v", seed, st.name, res.TcMs)
				return false
			}
			fresh, err := e.Clone().Estimate(res.Config)
			if err != nil || resultLine(Result{Estimate: fresh}, nil) != resultLine(Result{Estimate: res.Estimate}, nil) {
				t.Logf("seed %d %s: fresh estimate %v (%v), search %v", seed, st.name, fresh, err, res.Estimate)
				return false
			}
			tc[st.name] = res.TcMs
		}
		if !(tc["exhaustive"] <= tc["global"] && tc["global"] <= tc["bisect"]) {
			t.Logf("seed %d: exhaustive %v, global %v, bisect %v", seed, tc["exhaustive"], tc["global"], tc["bisect"])
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
