package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"netpart/internal/commbench"
	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/model"
	"netpart/internal/stencil"
	"netpart/internal/topo"
)

// TestSavedTableDecidesAsFitted: a table fitted on the paper testbed over
// the topologies cmd/partition fits, written with cost.WriteTable and read
// back with cost.ReadTable (commbench -o, then partition -costs), decides
// every Table 1 problem under all four strategies as the fitted table does,
// and prices every Table 2 configuration alike, bit for bit: configuration,
// vector, T_c and charge.
func TestSavedTableDecidesAsFitted(t *testing.T) {
	net := model.PaperTestbed()
	res, err := commbench.Run(net, []topo.Topology{topo.OneD{}, topo.Broadcast{}}, commbench.DefaultGrid())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cost.WriteTable(&buf, res.Table); err != nil {
		t.Fatal(err)
	}
	saved, err := cost.ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	strategies := map[string]search{
		"bisect": core.Partition, "scan": core.PartitionLinear,
		"exhaustive": core.PartitionExhaustive, "global": core.PartitionGlobal,
	}
	for _, n := range ProblemSizes {
		for _, v := range variants {
			ann := stencil.Annotations(n, v, Iterations)
			for name, s := range strategies {
				want, err := decide(net, res.Table, ann, s)
				if err != nil {
					t.Fatal(err)
				}
				got, err := decide(net, saved, ann, s)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("N=%d %s %s: the saved table decides %+v, the fitted one %+v", n, v, name, got[0], want[0])
				}
			}
			for _, c := range Table2Configs {
				cfg := PaperConfig(c.P1, c.P2)
				want, err := decide(net, res.Table, ann, estimate(cfg))
				if err != nil {
					t.Fatal(err)
				}
				got, err := decide(net, saved, ann, estimate(cfg))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("N=%d %s %d+%d: the saved table estimates %+v, the fitted one %+v", n, v, c.P1, c.P2, got[0].Estimate, want[0].Estimate)
				}
			}
		}
	}
}
