package experiments

import (
	"netpart/internal/commbench"
	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/model"
	"netpart/internal/parallel"
	"netpart/internal/stencil"
	"netpart/internal/topo"
	"netpart/internal/trace"
)

// HeldOutRow is one two-rank STEN-1 configuration on a testbed the
// estimator was not developed on: its fitted estimate of T_c against a
// time-only simulation, per cycle.
type HeldOutRow struct {
	Testbed string
	N       int
	Config  cost.Config
	// Crossing marks one rank in each of two clusters, a pair across the
	// router; otherwise both ranks are one cluster's, on its segment.
	Crossing      bool
	PredMs, SimMs float64
}

// ResidualPct is (predicted − simulated) / simulated.
func (r HeldOutRow) ResidualPct() float64 { return trace.DeviationPct(r.PredMs, r.SimMs) }

// HeldOutSizes are the problem sizes of the held-out two-rank rows.
var HeldOutSizes = []int{60, 300, 1200}

// HeldOutTwoRank fits the metasystem testbed (E10) and the Fig. 1 network
// with commbench, as NewEnv fits the paper's, and prices every two-rank
// STEN-1 configuration on them at HeldOutSizes: each cluster alone at two
// ranks, then one rank in each of two clusters. Of the Env only Jobs is
// read: the configurations are simulated on its worker pool.
func HeldOutTwoRank(e *Env) ([]HeldOutRow, error) {
	type unit struct {
		net *model.Network
		tbl *cost.Table
		HeldOutRow
	}
	var units []unit
	for _, bed := range []struct {
		name string
		net  *model.Network
	}{{"metasystem", model.MetasystemTestbed()}, {"fig1", model.Figure1Network()}} {
		bench, err := commbench.Run(bed.net, []topo.Topology{topo.OneD{}}, commbench.DefaultGrid())
		if err != nil {
			return nil, err
		}
		k := len(bed.net.Clusters)
		names := make([]string, k)
		for i, c := range bed.net.Clusters {
			names[i] = c.Name
		}
		var configs [][]int // each cluster alone, then each pair across the router
		for i := range names {
			counts := make([]int, k)
			counts[i] = 2
			configs = append(configs, counts)
		}
		for i := range names {
			for j := i + 1; j < k; j++ {
				counts := make([]int, k)
				counts[i], counts[j] = 1, 1
				configs = append(configs, counts)
			}
		}
		for _, n := range HeldOutSizes {
			for c, counts := range configs {
				units = append(units, unit{bed.net, bench.Table, HeldOutRow{
					Testbed: bed.name, N: n, Config: cost.Config{Clusters: names, Counts: counts}, Crossing: c >= k,
				}})
			}
		}
	}
	rows := make([]HeldOutRow, len(units))
	err := parallel.For(e.workers(), len(units), func(i int) error {
		u := units[i]
		est, err := core.NewEstimator(u.net, u.tbl, stencil.Annotations(u.N, stencil.STEN1, Iterations))
		if err != nil {
			return err
		}
		pred, err := est.Estimate(u.Config)
		if err != nil {
			return err
		}
		vec, err := core.Decompose(u.net, u.Config, u.N, model.OpFloat)
		if err != nil {
			return err
		}
		ms, err := simMs(u.net, u.Config, vec, stencil.STEN1, u.N, Iterations)
		u.PredMs, u.SimMs = pred.TcMs, ms/Iterations
		rows[i] = u.HeldOutRow
		return err
	})
	return rows, err
}
