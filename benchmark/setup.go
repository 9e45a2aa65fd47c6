package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"netpart/internal/balance"
	"netpart/internal/commbench"
	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/experiments"
	"netpart/internal/mmps"
	"netpart/internal/model"
	"netpart/internal/obs"
	"netpart/internal/stencil"
	"netpart/internal/topo"
)

// fitTopologies are what the generated annotations communicate over:
// 1-D (stencil, particles), broadcast (gauss) and 2-D (stencil2d).
var fitTopologies = []topo.Topology{topo.OneD{}, topo.Broadcast{}, topo.Mesh2D{}}

type refKey struct{ n, iters int }

// state is one workload's set-up product: everything the timed stages use
// and nothing they have to build.
type state struct {
	in     *inputs
	sc     scale
	root   string
	tables []*cost.Table // fitted by commbench.Run, aligned with in.nets
	env    *experiments.Env
	vec    core.Vector // the anchor's partition vector
	world  []mmps.Transport
	reg    *obs.Registry // transport counters; traced runs only
	refs   map[refKey][][]float64
	spec   []byte // specs/sten2.json
}

func (st *state) net(i int) *model.Network { return st.in.nets[i].net }

// setUp is what setup_s times: cost-table fits for every network, the
// anchor's vector, world construction, and the stencil.Sequential
// reference grids the untimed verification compares against.
func setUp(in *inputs, sc scale, root string, traced bool) (*state, error) {
	st := &state{in: in, sc: sc, root: root, refs: make(map[refKey][][]float64)}
	for _, ns := range in.nets {
		res, err := commbench.Run(ns.net, fitTopologies, commbench.DefaultGrid())
		if err != nil {
			return nil, fmt.Errorf("fitting %s: %w", ns.name, err)
		}
		st.tables = append(st.tables, res.Table)
	}
	st.env = &experiments.Env{Net: st.net(0), Paper: cost.PaperTable(), Fitted: st.tables[0], Jobs: 1}

	a := in.anchor
	var err error
	if a.hetero {
		st.vec, err = core.Decompose(st.net(0), experiments.PaperConfig(2, 2), a.liveN, model.OpFloat)
	} else {
		st.vec, err = balance.EqualVector(a.liveN, liveRanks)
	}
	if err != nil {
		return nil, fmt.Errorf("anchor vector: %w", err)
	}

	var opts []mmps.Option
	if traced {
		st.reg = obs.NewRegistry()
		opts = append(opts, mmps.WithMetrics(st.reg))
	}
	if st.world, err = newWorld(a.transport, liveRanks, opts...); err != nil {
		return nil, err
	}

	st.ref(a.liveN, baseCycles)
	st.ref(a.liveN, a.cycles)
	for _, u := range in.units {
		st.ref(u.n, experiments.Iterations)
	}
	if in.workload == "sim-paper" && sc.paper {
		for _, n := range experiments.ProblemSizes {
			st.ref(n, experiments.Iterations)
		}
	}
	if st.spec, err = os.ReadFile(filepath.Join(root, "specs", "sten2.json")); err != nil {
		return nil, err
	}
	return st, nil
}

func newWorld(kind string, n int, opts ...mmps.Option) ([]mmps.Transport, error) {
	switch kind {
	case "local":
		w, err := mmps.NewLocalWorld(n, opts...)
		return asTransports(w), err
	case "udp":
		w, err := mmps.NewUDPWorld(n, opts...)
		return asTransports(w), err
	}
	return nil, fmt.Errorf("unknown transport %q", kind)
}

func asTransports[T mmps.Transport](ends []T) []mmps.Transport {
	out := make([]mmps.Transport, len(ends))
	for i, e := range ends {
		out[i] = e
	}
	return out
}

func closeWorld(world []mmps.Transport) {
	for _, t := range world {
		_ = t.Close() // endpoints are being discarded; nothing to do on error
	}
}

func (st *state) close() { closeWorld(st.world) }

// ref returns the sequential reference grid after iters iterations at size
// n, computing it on first use.
func (st *state) ref(n, iters int) [][]float64 {
	k := refKey{n, iters}
	g, ok := st.refs[k]
	if !ok {
		g = stencil.Sequential(stencil.NewGrid(n), iters)
		st.refs[k] = g
	}
	return g
}

// sameGrid reports whether two grids are bit-for-bit equal.
func sameGrid(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j, x := range a[i] {
			if math.Float64bits(x) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// findRoot walks up from dir to the directory holding BENCHMARK.json.
func findRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json above the working directory")
		}
		dir = parent
	}
}
